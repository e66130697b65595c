package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"nautilus/internal/core"
	"nautilus/internal/data"
	"nautilus/internal/exec"
	"nautilus/internal/experiments"
	"nautilus/internal/models"
	"nautilus/internal/simclock"
	"nautilus/internal/storage"
	"nautilus/internal/tensor"
	"nautilus/internal/workloads"
)

// miniWorkload is a mini-scale model-selection workload with real training.
type miniWorkload struct {
	spec   workloads.Spec
	cycles int
	gen    recordGen
}

var (
	// ftr3Cycles: FTR-3, every labeling cycle. Many small transformer-head
	// steps over materialized features: per-op overhead dominates.
	ftr3Cycles = miniWorkload{workloads.FTR3(), 6, tokenGen(models.BERTMini().Seq)}
	// ftuFinetune: FTU, the first two cycles. A few large conv steps:
	// kernel throughput dominates.
	ftuFinetune = miniWorkload{workloads.FTU(), 2, imageGen(
		models.ResNetMini().InH, models.ResNetMini().InW, models.ResNetMini().InC)}
)

// miniSetupsPerCycle is how many set-ups a run times before each cycle;
// setup_s is their median.
const miniSetupsPerCycle = 40

// miniConfig is the configuration nautilus-run builds.
func miniConfig(dir string, seed int64) core.Config {
	cfg := core.DefaultConfig(dir)
	cfg.Approach = core.Nautilus
	cfg.HW = experiments.MiniHardware()
	cfg.Seed = seed
	cfg.MaxRecords = 600
	return cfg
}

func miniSchedule() (perCycle, trainPer int) {
	perCycle, trainPer, _ = (&workloads.Instance{Scale: workloads.Mini}).CycleSchedule()
	return perCycle, trainPer
}

// setupMini builds the workload instance (models, profiles, merged graph)
// and the model-selection object, returning the time both took.
func setupMini(w miniWorkload, dir string, seed int64) (*workloads.Instance, *core.ModelSelection, time.Duration, error) {
	t0 := now()
	inst, err := w.spec.Build(workloads.Mini, experiments.MiniHardware())
	if err != nil {
		return nil, nil, 0, err
	}
	ms, err := core.New(inst.Items, inst.MM, miniConfig(dir, seed))
	return inst, ms, since(t0), err
}

// fitSession is one closed-loop session: one ModelSelection.Fit per cycle.
type fitSession struct {
	cycles  []time.Duration
	results [][]core.CandidateResult
	diskMB  float64
	ratio   float64
}

func (s *fitSession) selection() time.Duration {
	var d time.Duration
	for _, c := range s.cycles {
		d += c
	}
	return d
}

// runFitSession sets up in a fresh directory and fits every snapshot,
// calling beforeCycle (when set) ahead of each cycle. A cycle that errors or
// fails its output check counts as a failed op.
func runFitSession(w miniWorkload, dir string, seed int64, snaps []data.Snapshot, out *outcome, beforeCycle func() error) (*fitSession, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	inst, ms, _, err := setupMini(w, dir, seed)
	if err != nil {
		return nil, err
	}
	s := &fitSession{}
	for _, snap := range snaps {
		if beforeCycle != nil {
			if err := beforeCycle(); err != nil {
				_ = ms.Close() // the set-up error is the one to report
				return nil, err
			}
		}
		runtime.GC() // every op starts from a collected heap
		t0 := now()
		fit, err := ms.Fit(snap)
		d := since(t0)
		out.attempted++
		if err != nil {
			out.failed++
			out.fail("cycle %d: %v", snap.Cycle, err)
			break
		}
		s.cycles = append(s.cycles, d)
		s.results = append(s.results, fit.Results)
		if err := checkResults(fit.Results, len(inst.Items)); err != nil {
			out.failed++
			out.fail("cycle %d: %v", snap.Cycle, err)
		}
	}
	nt, cp, err := planCosts(ms.Planner(), w.cycles)
	if err != nil {
		_ = ms.Close() // the replay error is the one to report
		return nil, err
	}
	s.ratio = nt.TotalSec() / cp.TotalSec()
	if err := ms.Close(); err != nil {
		return nil, err
	}
	s.diskMB, err = dirMB(dir)
	return s, err
}

// checkResults verifies that a cycle reports every candidate once, with a
// finite validation loss and an accuracy in [0, 1].
func checkResults(rs []core.CandidateResult, want int) error {
	if len(rs) != want {
		return fmt.Errorf("%d candidate results, want %d", len(rs), want)
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r.Model] {
			return fmt.Errorf("candidate %s reported twice", r.Model)
		}
		seen[r.Model] = true
		if math.IsNaN(r.ValLoss) || math.IsInf(r.ValLoss, 0) {
			return fmt.Errorf("candidate %s: validation loss %v", r.Model, r.ValLoss)
		}
		if !(r.ValAcc >= 0 && r.ValAcc <= 1) {
			return fmt.Errorf("candidate %s: validation accuracy %v", r.Model, r.ValAcc)
		}
	}
	return nil
}

func meanAcc(rs []core.CandidateResult) float64 {
	var sum float64
	for _, r := range rs {
		sum += r.ValAcc
	}
	return sum / float64(len(rs))
}

// planCosts replays the planner's current plan, and a Current Practice plan
// of the same candidates, on the cost clock over the workload's own
// labeling schedule.
func planCosts(p *core.Planner, cycles int) (plan, currentPractice *simclock.Result, err error) {
	perCycle, trainPer := miniSchedule()
	sched := simclock.Schedule{Cycles: cycles, PerCycle: perCycle, TrainPerCycle: trainPer}
	return simulateBoth(p, sched, miniConfig("", 0))
}

func runMini(w miniWorkload, o options) (*outcome, error) {
	perCycle, trainPer := miniSchedule()
	snaps := snapshots(w.gen, o.seed, perCycle, trainPer, w.cycles)
	out := &outcome{metrics: map[string]float64{}}
	if o.trace {
		return out, traceMini(w, o, snaps, out)
	}

	start := now()
	// Set-ups are timed before every cycle, each from a collected heap, so
	// they sample the same stretch of time as the cycles.
	var setups []float64
	sampleSetups := func() error {
		dir := filepath.Join(o.dir, "setup")
		for i := 0; i < miniSetupsPerCycle; i++ {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			runtime.GC()
			_, sel, d, err := setupMini(w, dir, o.seed)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
			if err := sel.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		return nil
	}
	// Sessions repeat while another one fits in the budget. Each starts
	// from a collected heap with its free pages returned to the OS, as a
	// fresh process would, so every session has the same peak RSS.
	var sessions []*fitSession
	for len(sessions) == 0 || since(start)+sessions[len(sessions)-1].selection() <= secs(o.seconds) {
		debug.FreeOSMemory()
		s, err := runFitSession(w, filepath.Join(o.dir, fmt.Sprintf("session%d", len(sessions))), o.seed, snaps, out, sampleSetups)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, s)
		if len(s.cycles) != len(snaps) {
			break // a failed cycle ends the run
		}
	}

	var selections, firsts, cycleMS, disks, ratios []float64
	for _, s := range sessions {
		if len(s.cycles) == 0 {
			continue
		}
		selections = append(selections, s.selection().Seconds())
		firsts = append(firsts, s.cycles[0].Seconds())
		for _, c := range s.cycles {
			cycleMS = append(cycleMS, millis(c))
		}
		disks = append(disks, s.diskMB)
		ratios = append(ratios, s.ratio)
	}
	if len(selections) == 0 {
		return nil, fmt.Errorf("no cycle completed: %v", out.problems)
	}
	last := sessions[len(sessions)-1]
	for i := 1; i < len(sessions); i++ {
		if err := sameResults(sessions[0].results, sessions[i].results); err != nil {
			out.fail("session %d differs from session 0: %v", i, err)
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	tailV, beyond := tail(cycleMS)
	out.metrics["setup_s"] = median(setups)
	out.metrics["selection_s"] = median(selections)
	out.metrics["first_cycle_s"] = median(firsts)
	out.metrics["op_p50_ms"] = median(cycleMS)
	out.metrics["op_tail_ms"] = tailV
	out.metrics["peak_rss_mb"] = rss
	out.metrics["disk_mb"] = median(disks)
	out.metrics["plan_cost_ratio"] = median(ratios)
	out.note("sessions: %d; setups: %d; cycles timed: %d (tail has %d samples beyond it)", len(sessions), len(setups), len(cycleMS), beyond)
	for i, s := range sessions {
		out.note("session %d: selection %.3fs, cycles %v", i, s.selection().Seconds(), s.cycles)
	}
	out.note("final-cycle mean validation accuracy: %.6f over %d candidates", meanAcc(last.results[len(last.results)-1]), len(last.results[len(last.results)-1]))
	return out, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// sameResults compares two sessions' per-cycle results bit for bit.
func sameResults(a, b [][]core.CandidateResult) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d cycles vs %d", len(a), len(b))
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return fmt.Errorf("cycle %d: %d results vs %d", c+1, len(a[c]), len(b[c]))
		}
		for i := range a[c] {
			x, y := a[c][i], b[c][i]
			if x.Model != y.Model ||
				math.Float64bits(x.ValAcc) != math.Float64bits(y.ValAcc) ||
				math.Float64bits(x.ValLoss) != math.Float64bits(y.ValLoss) {
				return fmt.Errorf("cycle %d: %s acc %v loss %v vs %s acc %v loss %v",
					c+1, x.Model, x.ValAcc, x.ValLoss, y.Model, y.ValAcc, y.ValLoss)
			}
		}
	}
	return nil
}

// traceMini runs one untraced Fit session for reference, then the same
// cycles through the composed path with a span around every call, and
// reports the per-layer metrics of the traced session.
func traceMini(w miniWorkload, o options, snaps []data.Snapshot, out *outcome) error {
	ref, err := runFitSession(w, filepath.Join(o.dir, "reference"), o.seed, snaps, out, nil)
	if err != nil {
		return err
	}
	dir := filepath.Join(o.dir, "traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	tr := newTracer()
	root := tr.begin("bench.run")
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tuned0, fallback0 := tensor.DispatchCounts()

	var inst *workloads.Instance
	var c *composed
	err = tr.do("bench.setup", func() error {
		var err error
		if inst, err = w.spec.Build(workloads.Mini, experiments.MiniHardware()); err != nil {
			return err
		}
		c, err = newComposed(inst, miniConfig(dir, o.seed), tr)
		return err
	})
	if err != nil {
		return err
	}
	var results [][]core.CandidateResult
	var selection time.Duration
	for _, snap := range snaps {
		runtime.GC()
		t0 := now()
		rs, err := c.fit(snap)
		selection += since(t0)
		out.attempted++
		if err != nil {
			out.failed++
			out.fail("traced cycle %d: %v", snap.Cycle, err)
			break
		}
		results = append(results, rs)
		if err := checkResults(rs, len(inst.Items)); err != nil {
			out.failed++
			out.fail("traced cycle %d: %v", snap.Cycle, err)
		}
	}
	var sim *simclock.Result
	err = tr.do("sim.Simulate", func() error {
		var err error
		sim, _, err = planCosts(c.planner, w.cycles)
		return err
	})
	if err != nil {
		return err
	}
	tuned1, fallback1 := tensor.DispatchCounts()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	tr.end(root)

	if err := sameResults(ref.results, results); err != nil {
		out.fail("composed cycles differ from ModelSelection.Fit: %v", err)
	}
	if err := tr.checkTree(); err != nil {
		out.fail("%v", err)
	}
	if err := tr.write(o.traceFile); err != nil {
		return err
	}

	m := out.metrics
	c.report(m)
	m["tensor.dispatch_tuned"] = float64(tuned1 - tuned0)
	m["tensor.dispatch_fallback"] = float64(fallback1 - fallback0)
	m["gc.cycles"] = float64((ms1.NumGC - ms1.NumForcedGC) - (ms0.NumGC - ms0.NumForcedGC))
	m["gc.pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	reportSim(m, sim)
	overhead := 100 * (selection.Seconds()/ref.selection().Seconds() - 1)
	m["trace.overhead_pct"] = overhead
	out.note("untraced selection %.3fs, traced %.3fs (overhead %.2f%%); %d spans written to %s",
		ref.selection().Seconds(), selection.Seconds(), overhead, len(tr.spans), o.traceFile)
	return c.close()
}

// composed replays core.New and ModelSelection.Fit from the public calls
// Fit is made of, recording a span around each call. It exists until the
// program records these spans itself.
type composed struct {
	cfg     core.Config
	tr      *tracer
	planner *core.Planner
	metrics *exec.Metrics
	store   *storage.TensorStore
	arena   *tensor.Arena
	trainer *exec.Trainer
	mz      *exec.Materializer
	cycle   int

	planCounters
	syncRecords                            int
	trainAllocs, trainAllocBytes, ckptSize int64
}

// newComposed mirrors core.New.
func newComposed(inst *workloads.Instance, cfg core.Config, tr *tracer) (*composed, error) {
	c := &composed{cfg: cfg, tr: tr}
	err := tr.do("core.NewPlanner", func() error {
		var err error
		c.planner, err = core.NewPlanner(inst.Items, inst.MM, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	c.metrics = exec.NewMetrics()
	err = tr.do("storage.NewTensorStore", func() error {
		var err error
		c.store, err = storage.NewTensorStore(filepath.Join(cfg.WorkDir, "store"), c.metrics.Disk)
		return err
	})
	if err != nil {
		return nil, err
	}
	if cfg.PageCacheBytes > 0 {
		c.store.EnableCache(cfg.PageCacheBytes)
	}
	if err := os.MkdirAll(filepath.Join(cfg.WorkDir, "checkpoints"), 0o755); err != nil {
		return nil, err
	}
	if cfg.HW.Workers > 0 {
		tensor.SetMaxWorkers(cfg.HW.Workers)
	}
	if cfg.Arena {
		c.arena = tensor.NewArena()
	}
	c.trainer = &exec.Trainer{Store: c.store, Loss: cfg.Loss, Seed: cfg.Seed, Metrics: c.metrics, Prefetch: cfg.Prefetch, Arena: c.arena}
	return c, nil
}

func (c *composed) close() error { return c.store.Close() }

// fit mirrors ModelSelection.Fit for one snapshot.
func (c *composed) fit(snap data.Snapshot) ([]core.CandidateResult, error) {
	tr := c.tr
	c.cycle++
	id := tr.begin("bench.cycle")
	defer tr.end(id)

	grow := tr.begin("core.GrowData")
	c.planner.GrowData(snap.TrainSize())
	tr.end(grow)
	if c.planner.NeedsReplan() {
		if err := c.replan(); err != nil {
			return nil, err
		}
	}
	if c.mz != nil {
		before, err := c.synced()
		if err != nil {
			return nil, err
		}
		if err := tr.do("exec.SyncSplit", func() error { return c.mz.SyncSplit(exec.Train, snap.TrainX) }); err != nil {
			return nil, err
		}
		if err := tr.do("exec.SyncSplit", func() error { return c.mz.SyncSplit(exec.Valid, snap.ValidX) }); err != nil {
			return nil, err
		}
		after, err := c.synced()
		if err != nil {
			return nil, err
		}
		c.syncRecords += after - before
	}
	reset := tr.begin("graph.Param.Reset")
	for _, it := range c.planner.Items() {
		for _, p := range it.Model.TrainableParams() {
			p.Reset()
		}
	}
	tr.end(reset)

	var results []core.CandidateResult
	for gi, g := range c.planner.Plan().Groups {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var branches []exec.BranchResult
		err := tr.do("exec.TrainGroup", func() error {
			var err error
			branches, err = c.trainer.TrainGroup(g, snap)
			return err
		})
		runtime.ReadMemStats(&m1)
		c.trainAllocs += int64(m1.Mallocs - m0.Mallocs)
		c.trainAllocBytes += int64(m1.TotalAlloc - m0.TotalAlloc)
		if err != nil {
			return nil, err
		}
		for _, b := range branches {
			results = append(results, core.CandidateResult{Model: b.Item.Model.Name, ValAcc: b.ValAcc, ValLoss: b.ValLoss, Item: b.Item})
		}
		path := filepath.Join(c.cfg.WorkDir, "checkpoints", fmt.Sprintf("cycle%d_group%d.nckp", c.cycle, gi))
		full := c.cfg.Approach == core.CurrentPractice
		if err := tr.do("exec.Checkpoint", func() error { return c.trainer.Checkpoint(g, path, full) }); err != nil {
			return nil, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		c.ckptSize += st.Size()
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Model < results[j].Model })
	return results, nil
}

// replan mirrors Fit's replan-and-apply step: Replan, reconcile on-disk
// artifacts with the delta, and rebuild the materializer.
func (c *composed) replan() error {
	tr := c.tr
	var wp *core.WorkloadPlan
	var delta *core.PlanDelta
	err := tr.do("core.Replan", func() error {
		var err error
		wp, delta, err = c.planner.Replan()
		return err
	})
	if err != nil {
		return err
	}
	c.note(wp, delta)
	err = tr.do("exec.ReconcileArtifacts", func() error {
		_, err := exec.ReconcileArtifacts(c.store, delta.OldSigs(), wp.MatSigs)
		return err
	})
	if err != nil {
		return err
	}
	c.mz = nil
	if len(wp.MatSigs) == 0 {
		return nil
	}
	return tr.do("exec.NewMaterializer", func() error {
		mz, err := exec.NewMaterializer(c.store, c.planner.MultiModel(), wp.MatSigs)
		if mz != nil {
			mz.Prefetch = c.cfg.Prefetch
			mz.Arena = c.arena
		}
		c.mz = mz
		return err
	})
}

// synced counts the records materialized so far, over every chosen
// signature and both splits.
func (c *composed) synced() (int, error) {
	n := 0
	for _, sig := range c.mz.MaterializedSigs() {
		for _, split := range []exec.Split{exec.Train, exec.Valid} {
			k, err := c.mz.Count(sig, split)
			if err != nil {
				return 0, err
			}
			n += k
		}
	}
	return n, nil
}

// report writes the core, exec and storage per-layer metrics.
func (c *composed) report(m map[string]float64) {
	tr := c.tr
	c.planCounters.report(m, tr)

	m["exec.reconcile_s"] = (tr.total("exec.ReconcileArtifacts") + tr.total("exec.NewMaterializer")).Seconds()
	m["exec.sync_s"] = tr.total("exec.SyncSplit").Seconds()
	m["exec.sync_records"] = float64(c.syncRecords)
	train := tr.total("exec.TrainGroup").Seconds()
	gflop := float64(c.metrics.ComputeFLOPs) / 1e9
	m["exec.train_s"] = train
	m["exec.train_steps"] = float64(c.metrics.TrainSteps)
	m["exec.train_gflop"] = gflop
	m["exec.train_gflops_per_s"] = gflop / train
	m["exec.train_allocs_per_step"] = float64(c.trainAllocs) / float64(c.metrics.TrainSteps)
	m["exec.train_alloc_mb"] = float64(c.trainAllocBytes) / 1e6
	m["exec.ckpt_s"] = tr.total("exec.Checkpoint").Seconds()
	m["exec.ckpt_mb"] = float64(c.ckptSize) / 1e6

	disk := c.metrics.Disk
	hits, misses := c.store.CacheStats()
	m["storage.read_calls"] = float64(disk.Reads())
	m["storage.read_mb"] = float64(disk.BytesRead()) / 1e6
	m["storage.write_calls"] = float64(disk.Writes())
	m["storage.write_mb"] = float64(disk.BytesWritten()) / 1e6
	m["storage.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["storage.footprint_mb"] = float64(c.store.TotalBytes()) / 1e6

	st := c.arena.Stats()
	m["tensor.arena_gets"] = float64(st.Gets)
	m["tensor.arena_hit_ratio"] = ratio(st.Hits, st.Gets)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

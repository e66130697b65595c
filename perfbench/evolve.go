package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"nautilus/internal/core"
	"nautilus/internal/experiments"
	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/opt"
	"nautilus/internal/simclock"
	"nautilus/internal/tensor"
	"nautilus/internal/workloads"
)

// evolveSpecs are the paper-scale workloads plan-evolve evolves, one
// planning session each.
var evolveSpecs = []workloads.Spec{workloads.FTR1(), workloads.ATR(), workloads.FTU()}

// planSession is one evolving planner session over a paper-scale grid.
type planSession struct {
	inst     *workloads.Instance
	sc       script
	planner  *core.Planner
	counters planCounters
}

// setupEvolve builds every paper-scale instance (models, profiles, merged
// graph) and a planner over each script's initial candidates.
func setupEvolve(scripts []script, tr *tracer) ([]*planSession, time.Duration, error) {
	t0 := now()
	id := tr.begin("bench.setup")
	defer tr.end(id)
	var sessions []*planSession
	for i, spec := range evolveSpecs {
		s := &planSession{sc: scripts[i]}
		err := tr.do("workloads.Build", func() error {
			var err error
			s.inst, err = spec.Build(workloads.Paper, experiments.MiniHardware())
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		items := pick(s.inst.Items, s.sc.initial)
		var mm *mmg.MultiModel
		err = tr.do("mmg.Build", func() error {
			models := make([]*graph.Model, len(items))
			for j, it := range items {
				models[j] = it.Model
			}
			var err error
			mm, err = mmg.Build(models...)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		err = tr.do("core.NewPlanner", func() error {
			var err error
			s.planner, err = core.NewPlanner(items, mm, miniConfig("", 0))
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		sessions = append(sessions, s)
	}
	return sessions, since(t0), nil
}

func pick(items []opt.WorkItem, idx []int) []opt.WorkItem {
	out := make([]opt.WorkItem, len(idx))
	for i, j := range idx {
		out[i] = items[j]
	}
	return out
}

// evolvePass is one run of every session's script.
type evolvePass struct {
	// ops are the latencies of every event plus its Replan.
	ops []time.Duration
	// plans fingerprints each session's final plan.
	plans   []string
	diskMB  float64
	ratio   float64
	sim     simclock.Result
	planned planCounters
}

func (p *evolvePass) selection() time.Duration {
	var d time.Duration
	for _, o := range p.ops {
		d += o
	}
	return d
}

// runEvolvePass sets up and plays every script. An event whose call or
// Replan errors counts as a failed op.
func runEvolvePass(scripts []script, tr *tracer, out *outcome) (*evolvePass, error) {
	sessions, _, err := setupEvolve(scripts, tr)
	if err != nil {
		return nil, err
	}
	p := &evolvePass{}
	var ntTotal, cpTotal float64
	for i, s := range sessions {
		id := tr.begin("bench.session")
		grid := s.inst.Items
		ops := append([]event{s.sc.firstEvent()}, s.sc.events...)
		for k, ev := range ops {
			runtime.GC() // every op starts from a collected heap
			t0 := now()
			err := s.apply(ev, grid, tr)
			d := since(t0)
			out.attempted++
			if err != nil {
				out.failed++
				out.fail("%s event %d (%v): %v", evolveSpecs[i].Name, k, ev.kind, err)
				continue
			}
			p.ops = append(p.ops, d)
		}
		if err := s.checkFinal(grid); err != nil {
			out.fail("%s: %v", evolveSpecs[i].Name, err)
		}
		if s.planner.Plan() == nil {
			return nil, fmt.Errorf("%s: no plan to replay: %v", evolveSpecs[i].Name, out.problems)
		}
		var nt, cp *simclock.Result
		err := tr.do("bench.replay", func() error {
			var err error
			nt, cp, err = simulateBoth(s.planner, simclock.PaperSchedule(), miniConfig("", 0))
			return err
		})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if nt.TotalSec() > cp.TotalSec() {
			out.fail("%s: simulated nautilus %.1fs exceeds current practice %.1fs", evolveSpecs[i].Name, nt.TotalSec(), cp.TotalSec())
		}
		ntTotal += nt.TotalSec()
		cpTotal += cp.TotalSec()
		addSim(&p.sim, nt)
		wp := s.planner.Plan()
		p.diskMB += float64(wp.Stats.StorageBytes) / 1e6
		p.plans = append(p.plans, planFingerprint(wp))
	}
	p.ratio = ntTotal / cpTotal
	for _, s := range sessions {
		p.planned.add(s.counters)
	}
	return p, nil
}

// apply performs one evolution event and the Replan that follows it.
func (s *planSession) apply(ev event, grid []opt.WorkItem, tr *tracer) error {
	var err error
	switch ev.kind {
	case growData:
		id := tr.begin("core.GrowData")
		s.planner.GrowData(ev.trainSize)
		tr.end(id)
	case addCandidates:
		err = tr.do("core.AddCandidates", func() error { return s.planner.AddCandidates(pick(grid, ev.add)...) })
	case removeCandidate:
		err = tr.do("core.RemoveCandidate", func() error { return s.planner.RemoveCandidate(grid[ev.remove].Model.Name) })
	}
	if err != nil {
		return err
	}
	var wp *core.WorkloadPlan
	var delta *core.PlanDelta
	err = tr.do("core.Replan", func() error {
		var err error
		wp, delta, err = s.planner.Replan()
		return err
	})
	if err != nil {
		return err
	}
	s.counters.note(wp, delta)
	return nil
}

// checkFinal verifies that the session's candidates are exactly the set its
// script leaves.
func (s *planSession) checkFinal(grid []opt.WorkItem) error {
	var got, want []string
	for _, it := range s.planner.Items() {
		got = append(got, it.Model.Name)
	}
	for _, i := range s.sc.final {
		want = append(want, grid[i].Model.Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("final candidates %v, script leaves %v", got, want)
	}
	return nil
}

// planFingerprint identifies a plan by its groups and materialized set.
func planFingerprint(wp *core.WorkloadPlan) string {
	var parts []string
	for _, g := range wp.Groups {
		parts = append(parts, g.Fingerprint())
	}
	sort.Strings(parts)
	var sigs []string
	for sig := range wp.MatSigs {
		sigs = append(sigs, fmt.Sprint(sig))
	}
	sort.Strings(sigs)
	return strings.Join(parts, ";") + "|" + strings.Join(sigs, ",")
}

// scriptShapeSeed fixes the shape of every plan-evolve script; the --seed
// argument picks the candidates and growth sizes.
const scriptShapeSeed = 11

// evolveScripts draws the next script of every session from pick.
func evolveScripts(pick *rand.Rand) []script {
	shape := rand.New(rand.NewSource(scriptShapeSeed))
	cfg := miniConfig("", 0)
	var scripts []script
	for _, spec := range evolveSpecs {
		// Build orders each variant's grid by batch size, then learning
		// rate, then epochs; with one epoch setting, runs of len(LRs)
		// entries differ only in learning rate.
		scripts = append(scripts, makeScript(shape, pick, spec.NumModels(), len(spec.LRs)*len(spec.Epochs), cfg.MaxRecords))
	}
	return scripts
}

// evolveSetupsPerPass is how many times a run sets plan-evolve up, and asks
// every new planner for its first plan, before each pass; setup_s and
// first_cycle_s are the medians.
const evolveSetupsPerPass = 5

func runEvolve(o options) (*outcome, error) {
	pick := rand.New(rand.NewSource(o.seed))
	scripts := evolveScripts(pick)
	out := &outcome{metrics: map[string]float64{}}
	if o.trace {
		return out, traceEvolve(o, scripts, out)
	}
	start := now()
	// Set-ups, each followed by every new planner's first plan, are timed
	// before every pass, each from a collected heap, so they sample the same
	// stretch of time as the passes.
	var setups, firsts []float64
	sampleSetups := func() error {
		for i := 0; i < evolveSetupsPerPass; i++ {
			runtime.GC()
			sessions, d, err := setupEvolve(scripts, nil)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
			var first time.Duration
			for j, s := range sessions {
				runtime.GC()
				t0 := now()
				err := s.apply(s.sc.firstEvent(), s.inst.Items, nil)
				first += since(t0)
				out.attempted++
				if err != nil {
					out.failed++
					out.fail("%s first plan: %v", evolveSpecs[j].Name, err)
				}
			}
			firsts = append(firsts, first.Seconds())
		}
		return nil
	}
	// Passes repeat, each with the next scripts, while another fits in the
	// budget.
	var passes []*evolvePass
	for len(passes) == 0 || since(start)+passes[len(passes)-1].selection() <= secs(o.seconds) {
		if len(passes) > 0 {
			scripts = evolveScripts(pick)
		}
		debug.FreeOSMemory()
		if err := sampleSetups(); err != nil {
			return nil, err
		}
		p, err := runEvolvePass(scripts, nil, out)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	var selections, opMS, disks, ratios []float64
	for _, p := range passes {
		selections = append(selections, p.selection().Seconds())
		for _, d := range p.ops {
			opMS = append(opMS, millis(d))
		}
		disks = append(disks, p.diskMB)
		ratios = append(ratios, p.ratio)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	tailV, beyond := tail(opMS)
	out.metrics["setup_s"] = median(setups)
	out.metrics["selection_s"] = median(selections)
	out.metrics["first_cycle_s"] = median(firsts)
	out.metrics["op_p50_ms"] = median(opMS)
	out.metrics["op_tail_ms"] = tailV
	out.metrics["peak_rss_mb"] = rss
	out.metrics["disk_mb"] = median(disks)
	out.metrics["plan_cost_ratio"] = median(ratios)
	out.note("passes: %d; setups: %d; ops timed: %d (tail has %d samples beyond it)", len(passes), len(setups), len(opMS), beyond)
	for i, p := range passes {
		out.note("pass %d: events and replans %.3fs", i, p.selection().Seconds())
	}
	out.note("simulated model-selection time of the final plans: %.1fs", passes[0].sim.TotalSec())
	return out, nil
}

// traceEvolve runs one untraced pass for reference, then a traced pass, and
// reports the traced pass's per-layer metrics.
func traceEvolve(o options, scripts []script, out *outcome) error {
	ref, err := runEvolvePass(scripts, nil, out)
	if err != nil {
		return err
	}
	tr := newTracer()
	root := tr.begin("bench.run")
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tuned0, fallback0 := tensor.DispatchCounts()
	p, err := runEvolvePass(scripts, tr, out)
	if err != nil {
		return err
	}
	tuned1, fallback1 := tensor.DispatchCounts()
	runtime.ReadMemStats(&ms1)
	tr.end(root)

	if strings.Join(p.plans, "\n") != strings.Join(ref.plans, "\n") {
		out.fail("traced pass planned differently from the untraced pass")
	}
	if err := tr.checkTree(); err != nil {
		out.fail("%v", err)
	}
	if err := tr.write(o.traceFile); err != nil {
		return err
	}
	m := out.metrics
	p.planned.report(m, tr)
	for _, name := range []string{
		"exec.reconcile_s", "exec.sync_s", "exec.sync_records", "exec.train_s", "exec.train_steps",
		"exec.train_gflop", "exec.train_gflops_per_s", "exec.train_allocs_per_step", "exec.train_alloc_mb",
		"exec.ckpt_s", "exec.ckpt_mb", "storage.read_calls", "storage.read_mb", "storage.write_calls",
		"storage.write_mb", "storage.cache_hit_ratio", "storage.footprint_mb", "tensor.arena_gets",
		"tensor.arena_hit_ratio",
	} {
		m[name] = 0 // plan-evolve trains nothing and opens no store
	}
	m["tensor.dispatch_tuned"] = float64(tuned1 - tuned0)
	m["tensor.dispatch_fallback"] = float64(fallback1 - fallback0)
	m["gc.cycles"] = float64((ms1.NumGC - ms1.NumForcedGC) - (ms0.NumGC - ms0.NumForcedGC))
	m["gc.pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	reportSim(m, &p.sim)
	overhead := 100 * (p.selection().Seconds()/ref.selection().Seconds() - 1)
	m["trace.overhead_pct"] = overhead
	out.note("untraced replans %.3fs, traced %.3fs (overhead %.2f%%); %d spans written to %s",
		ref.selection().Seconds(), p.selection().Seconds(), overhead, len(tr.spans), o.traceFile)
	return nil
}

// planCounters accumulates the planner's own counters over replans.
type planCounters struct {
	replans, matSolveNodes, fuseStates int
	groupsTotal, groupsChecked         int
	newSigs, orphanedSigs              int
	// finalGroups and finalMaterialized describe the last plan.
	finalGroups, finalMaterialized int
}

func (c *planCounters) note(wp *core.WorkloadPlan, d *core.PlanDelta) {
	c.replans++
	c.matSolveNodes += wp.Stats.MatSolveNodes
	c.fuseStates += wp.Stats.Fuse.PairsEvaluated
	c.groupsTotal += d.GroupsTotal
	c.groupsChecked += d.GroupsChecked
	c.newSigs += len(d.New)
	c.orphanedSigs += len(d.Orphaned)
	c.finalGroups = len(wp.Groups)
	c.finalMaterialized = wp.Stats.Materialized
}

// add sums another session's counters, final-plan shapes included.
func (c *planCounters) add(o planCounters) {
	c.replans += o.replans
	c.matSolveNodes += o.matSolveNodes
	c.fuseStates += o.fuseStates
	c.groupsTotal += o.groupsTotal
	c.groupsChecked += o.groupsChecked
	c.newSigs += o.newSigs
	c.orphanedSigs += o.orphanedSigs
	c.finalGroups += o.finalGroups
	c.finalMaterialized += o.finalMaterialized
}

// report writes the core per-layer metrics; span totals come from tr.
func (c *planCounters) report(m map[string]float64, tr *tracer) {
	m["core.replan_s"] = tr.total("core.Replan").Seconds()
	m["core.replans"] = float64(c.replans)
	m["core.evolve_s"] = (tr.total("core.GrowData") + tr.total("core.AddCandidates") + tr.total("core.RemoveCandidate")).Seconds()
	m["core.mat_solve_nodes"] = float64(c.matSolveNodes)
	m["core.fuse_states"] = float64(c.fuseStates)
	m["core.verify_checked_ratio"] = ratio(int64(c.groupsChecked), int64(c.groupsTotal))
	m["core.delta_new_sigs"] = float64(c.newSigs)
	m["core.delta_orphaned_sigs"] = float64(c.orphanedSigs)
	m["core.groups"] = float64(c.finalGroups)
	m["core.materialized"] = float64(c.finalMaterialized)
}

// simulateBoth replays the planner's current plan, and a Current Practice
// plan of the same candidates, on the cost clock. Measured optimizer time
// is left out, so both replays are deterministic.
func simulateBoth(p *core.Planner, sched simclock.Schedule, cfg core.Config) (plan, currentPractice *simclock.Result, err error) {
	inst := &workloads.Instance{Items: p.Items(), MM: p.MultiModel()}
	plan, err = simulatePlan(inst, p.Plan(), sched, cfg, false)
	if err != nil {
		return nil, nil, err
	}
	cpCfg := cfg
	cpCfg.Approach = core.CurrentPractice
	cp, err := core.PlanWorkload(inst.Items, inst.MM, cpCfg, p.MaxRecords())
	if err != nil {
		return nil, nil, err
	}
	currentPractice, err = simulatePlan(inst, cp, sched, cfg, true)
	return plan, currentPractice, err
}

func simulatePlan(inst *workloads.Instance, wp *core.WorkloadPlan, sched simclock.Schedule, cfg core.Config, currentPractice bool) (*simclock.Result, error) {
	flops, bytes, err := experiments.MaterializationCost(inst, wp.MatSigs)
	if err != nil {
		return nil, err
	}
	return simclock.Simulate(simclock.Workload{
		Items:             inst.Items,
		Groups:            wp.Groups,
		MatSigs:           wp.MatSigs,
		MatFLOPsPerRecord: flops,
		MatBytesPerRecord: bytes,
		ProfileModels:     !currentPractice,
		FullCheckpoints:   currentPractice,
	}, sched, cfg.HW, simclock.DefaultOverheads())
}

// addSim accumulates r into acc (init breakdown, cycles, compute).
func addSim(acc *simclock.Result, r *simclock.Result) {
	acc.Init.OriginalCheckpointsSec += r.Init.OriginalCheckpointsSec
	acc.Init.ProfileSec += r.Init.ProfileSec
	acc.Init.OptimizeSec += r.Init.OptimizeSec
	acc.Init.PlanCheckpointsSec += r.Init.PlanCheckpointsSec
	acc.Cycles = append(acc.Cycles, r.Cycles...)
	acc.ComputeSec += r.ComputeSec
}

// reportSim writes the simclock per-layer metrics: initialization, compute,
// and I/O (everything else but the fixed per-group overheads).
func reportSim(m map[string]float64, r *simclock.Result) {
	var overhead float64
	for _, c := range r.Cycles {
		overhead += c.OverheadSec
	}
	m["sim.init_s"] = r.Init.Total()
	m["sim.compute_s"] = r.ComputeSec
	m["sim.io_s"] = r.TotalSec() - r.Init.Total() - r.ComputeSec - overhead
}

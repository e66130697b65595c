package main

import (
	"math/rand"
	"sort"

	"nautilus/internal/data"
	"nautilus/internal/tensor"
)

// Inputs are generated here, from the --seed argument alone; the program
// under test only ever sees the resulting tensors and candidate lists.

// Token-tagging records: tokens in [0, commonVocab) are ordinary words
// tagged O; each entity type owns a band of the rest of the vocabulary,
// whose lower half begins an entity (B-type) and upper half continues one
// (I-type). The tags follow from token identity, so the task is learnable.
const (
	tokenVocab   = 1024
	commonVocab  = 512
	entityTypes  = 4
	entityBand   = (tokenVocab - commonVocab) / entityTypes
	entityChance = 0.2
)

func tokenRecord(rng *rand.Rand, x, y []float32) {
	for s := 0; s < len(x); {
		if rng.Float64() >= entityChance {
			x[s], y[s] = float32(rng.Intn(commonVocab)), 0
			s++
			continue
		}
		typ := rng.Intn(entityTypes)
		base := commonVocab + typ*entityBand
		length := 1 + rng.Intn(3)
		for j := 0; j < length && s < len(x); j++ {
			if j == 0 {
				x[s], y[s] = float32(base+rng.Intn(entityBand/2)), float32(1+2*typ)
			} else {
				x[s], y[s] = float32(base+entityBand/2+rng.Intn(entityBand/2)), float32(2+2*typ)
			}
			s++
		}
	}
}

// imageRecord draws a noisy h×w×c image; positive records (label 1) carry
// a bright square patch near the centre.
func imageRecord(rng *rand.Rand, h, w, c int, x []float32) float32 {
	for i := range x {
		x[i] = 0.3 + float32(rng.NormFloat64()*0.1)
	}
	if rng.Intn(2) == 0 {
		return 0
	}
	size := h / 4
	top, left := h/4+rng.Intn(h/2-size+1), w/4+rng.Intn(w/2-size+1)
	for i := top; i < top+size; i++ {
		for j := left; j < left+size; j++ {
			px := x[(i*w+j)*c : (i*w+j+1)*c]
			for k := range px {
				px[k] = 1 - 0.2*float32(k)
			}
		}
	}
	return 1
}

// recordGen describes one kind of generated record: its feature shape, its
// label count, and how to draw one.
type recordGen struct {
	shape  []int // per-record feature shape
	labels int   // labels per record
	fill   func(rng *rand.Rand, x, y []float32)
}

func tokenGen(seq int) recordGen {
	return recordGen{shape: []int{seq}, labels: seq, fill: tokenRecord}
}

func imageGen(h, w, c int) recordGen {
	return recordGen{shape: []int{h, w, c}, labels: 1, fill: func(rng *rand.Rand, x, y []float32) {
		y[0] = imageRecord(rng, h, w, c, x)
	}}
}

// snapshots returns the cumulative dataset snapshots of `cycles` labeling
// cycles: each cycle labels perCycle new records, the first trainPer of
// which join the training split and the rest the validation split.
func snapshots(gen recordGen, seed int64, perCycle, trainPer, cycles int) []data.Snapshot {
	rng := rand.New(rand.NewSource(seed))
	recLen := 1
	for _, d := range gen.shape {
		recLen *= d
	}
	n := perCycle * cycles
	xs := make([]float32, n*recLen)
	ys := make([]float32, n*gen.labels)
	for r := 0; r < n; r++ {
		gen.fill(rng, xs[r*recLen:(r+1)*recLen], ys[r*gen.labels:(r+1)*gen.labels])
	}
	// gather copies the records with the given indices into fresh tensors.
	gather := func(idx []int) (*tensor.Tensor, *tensor.Tensor) {
		x := tensor.New(append([]int{len(idx)}, gen.shape...)...)
		yShape := []int{len(idx)}
		if gen.labels > 1 {
			yShape = append(yShape, gen.labels)
		}
		y := tensor.New(yShape...)
		for i, r := range idx {
			copy(x.Data()[i*recLen:], xs[r*recLen:(r+1)*recLen])
			copy(y.Data()[i*gen.labels:], ys[r*gen.labels:(r+1)*gen.labels])
		}
		return x, y
	}
	var out []data.Snapshot
	var train, valid []int
	for k := 0; k < cycles; k++ {
		for r := k * perCycle; r < (k+1)*perCycle; r++ {
			if r-k*perCycle < trainPer {
				train = append(train, r)
			} else {
				valid = append(valid, r)
			}
		}
		snap := data.Snapshot{Cycle: k + 1}
		snap.TrainX, snap.TrainY = gather(train)
		snap.ValidX, snap.ValidY = gather(valid)
		out = append(out, snap)
	}
	return out
}

// Evolution scripts for plan-evolve.

type eventKind int

const (
	growData eventKind = iota
	addCandidates
	removeCandidate
)

func (k eventKind) String() string {
	return [...]string{"GrowData", "AddCandidates", "RemoveCandidate"}[k]
}

// event is one evolution of a planning session. Candidates are indices into
// the workload's full grid.
type event struct {
	kind      eventKind
	trainSize int   // growData
	add       []int // addCandidates
	remove    int   // removeCandidate
}

// script is a seeded evolution of one workload: the session starts from a
// part of the grid at trainSize records, then applies events in order.
type script struct {
	initial   []int
	trainSize int
	events    []event
	// final is the candidate set the events leave, sorted.
	final []int
}

// firstEvent labels the first cycle's records; its Replan is the session's
// first plan.
func (sc script) firstEvent() event { return event{kind: growData, trainSize: sc.trainSize} }

const (
	scriptEvents     = 16
	scriptGrows      = 3
	scriptFirstTrain = 400 // records labeled for training in the first cycle
)

// makeScript draws a script over a grid whose consecutive runs of `class`
// entries differ only in learning rate, so they cost the planner the same.
// The script's shape (which kind of event comes when, and which classes
// each event touches) comes from shape, so every seed asks the planner for
// the same work; which member of a class takes part, and how far the data
// grows, come from pick. r0 is the planner's initial expected-maximum record
// count; every growData event labels past the current r, so it doubles r and
// forces a new materialization plan.
func makeScript(shape, pick *rand.Rand, gridSize, class, r0 int) script {
	classes := gridSize / class
	// in[k] and out[k] are class k's members inside and outside the
	// candidate set.
	in, out := make([][]int, classes), make([][]int, classes)
	for k := range in {
		members := pick.Perm(class)
		n := 1 + shape.Intn(class-1)
		for i, j := range members {
			if i < n {
				in[k] = append(in[k], k*class+j)
			} else {
				out[k] = append(out[k], k*class+j)
			}
		}
	}
	var sc script
	for _, m := range in {
		sc.initial = append(sc.initial, m...)
	}
	size := len(sc.initial)
	sc.trainSize = scriptFirstTrain

	// classWith returns a shape-chosen class whose list in sets has a member.
	classWith := func(sets [][]int) int {
		for {
			if k := shape.Intn(classes); len(sets[k]) > 0 {
				return k
			}
		}
	}
	// move takes a pick-chosen member of class k from one list to another.
	move := func(from, to [][]int, k int) int {
		j := pick.Intn(len(from[k]))
		c := from[k][j]
		from[k] = append(from[k][:j:j], from[k][j+1:]...)
		to[k] = append(to[k], c)
		return c
	}
	r := r0
	for r < sc.trainSize {
		r *= 2
	}
	growAt := map[int]bool{}
	for _, i := range shape.Perm(scriptEvents)[:scriptGrows] {
		growAt[i] = true
	}
	for i := 0; i < scriptEvents; i++ {
		switch {
		case growAt[i]:
			grown := r + 1 + pick.Intn(r/2)
			for r < grown {
				r *= 2
			}
			sc.events = append(sc.events, event{kind: growData, trainSize: grown})
		case size < gridSize && (size <= 2 || shape.Intn(2) == 0):
			ev := event{kind: addCandidates}
			for n := 1 + shape.Intn(3); n > 0 && size < gridSize; n-- {
				ev.add = append(ev.add, move(out, in, classWith(out)))
				size++
			}
			sc.events = append(sc.events, ev)
		default:
			sc.events = append(sc.events, event{kind: removeCandidate, remove: move(in, out, classWith(in))})
			size--
		}
	}
	for _, m := range in {
		sc.final = append(sc.final, m...)
	}
	sort.Ints(sc.final)
	return sc
}

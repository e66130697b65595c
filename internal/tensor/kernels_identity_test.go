package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The blocked/tiled/fast kernel variants must be bit-identical to the
// seed naive references for every schedule: any tile sizes (including
// non-divisible edge tiles and degenerate 1-row/1-col shapes), serial or
// parallel. These tests sweep random shapes and schedules and compare
// raw float32 bit patterns, with exact zeros (both signs) injected to
// exercise the sparsity skip paths.

type testForce struct{ sch Schedule }

func (f testForce) Schedule(Op, [3]int, int) (Schedule, bool) { return f.sch, true }

// fillMixed fills a tensor with normals plus injected +0/-0 values.
func fillMixed(rng *rand.Rand, x *Tensor) *Tensor {
	d := x.Data()
	for i := range d {
		switch rng.Intn(6) {
		case 0:
			d[i] = 0
		case 1:
			d[i] = float32(math.Copysign(0, -1))
		default:
			d[i] = float32(rng.NormFloat64())
		}
	}
	return x
}

func assertBitsEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Fatalf("%s: length %d, want %d", name, len(gd), len(wd))
	}
	for i := range gd {
		if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			t.Fatalf("%s: element %d = %v (bits %08x), want %v (bits %08x)",
				name, i, gd[i], math.Float32bits(gd[i]), wd[i], math.Float32bits(wd[i]))
		}
	}
}

// matmulSchedules enumerates schedules to sweep: default tiles, random
// tiles (edge tiles when they don't divide the shape), single-row tiles,
// and a forced-parallel leg so -race exercises the chunked path.
func matmulSchedules(rng *rand.Rand, k int) []Schedule {
	return []Schedule{
		{},
		{TileM: 1, TileK: 1},
		{TileM: 1 + rng.Intn(6), TileK: 1 + rng.Intn(k+4)},
		{TileM: 4, TileK: 256},
		{TileM: 1 + rng.Intn(6), TileK: 1 + rng.Intn(k+4), Workers: 4, SerialBelow: 1},
	}
}

func TestMatMulFamilyBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	SetMaxWorkers(4)
	t.Cleanup(func() {
		SetMaxWorkers(0)
		SetScheduleSource(nil)
	})
	for iter := 0; iter < 40; iter++ {
		m, k, n := 1+rng.Intn(33), 1+rng.Intn(40), 1+rng.Intn(33)
		a := fillMixed(rng, New(m, k))
		b := fillMixed(rng, New(k, n))
		bt := fillMixed(rng, New(n, k))
		at := fillMixed(rng, New(k, m))
		checkMatMulFamily(t, "mixed", a, b, bt, at, matmulSchedules(rng, k))
	}
}

// fillDense fills a tensor with normals and no exact zeros, so every
// 4-row block of a is zero-free and reaches the sgemm4x16 micro-kernel.
func fillDense(rng *rand.Rand, x *Tensor) *Tensor {
	d := x.Data()
	for i := range d {
		for d[i] == 0 {
			d[i] = float32(rng.NormFloat64())
		}
	}
	return x
}

// denseDims draws m, k, n in [1,300] with n >= 16 and not a multiple of
// 16, so every sweep case runs full 16-column strips plus a saxpy4 tail.
func denseDims(rng *rand.Rand) (m, k, n int) {
	m, k, n = 1+rng.Intn(300), 1+rng.Intn(300), 16+rng.Intn(285)
	if n%16 == 0 {
		n++
	}
	return m, k, n
}

// denseSchedules are the sweep's legs: default dispatch, forced serial
// with default and random panel depths, and forced parallel.
func denseSchedules(rng *rand.Rand, k int) []Schedule {
	return []Schedule{
		{},
		{Workers: 1},
		{TileK: 1 + rng.Intn(k+4), Workers: 1},
		{TileK: 1 + rng.Intn(k+4), Workers: 4, SerialBelow: 1},
	}
}

// checkMatMulFamily compares all three matmul forms against their naive
// references under every schedule.
func checkMatMulFamily(t *testing.T, label string, a, b, bt, at *Tensor, schs []Schedule) {
	t.Helper()
	wantMM := MatMulNaive(a, b)
	wantBT := MatMulBTNaive(a, bt)
	wantAT := MatMulATNaive(at, b)
	for _, sch := range schs {
		SetScheduleSource(testForce{sch})
		assertBitsEqual(t, label+" MatMul "+sch.String(), MatMul(a, b), wantMM)
		assertBitsEqual(t, label+" MatMulBT "+sch.String(), MatMulBT(a, bt), wantBT)
		assertBitsEqual(t, label+" MatMulAT "+sch.String(), MatMulAT(at, b), wantAT)
		SetScheduleSource(nil)
	}
}

// TestMatMulFamilyZeroFreeBitIdentity sweeps zero-free operands, which
// fillMixed almost never produces for a whole 4-row block, so the
// register-blocked micro-kernel carries every full block here.
func TestMatMulFamilyZeroFreeBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	SetMaxWorkers(4)
	t.Cleanup(func() {
		SetMaxWorkers(0)
		SetScheduleSource(nil)
	})
	for iter := 0; iter < 12; iter++ {
		m, k, n := denseDims(rng)
		a := fillDense(rng, New(m, k))
		b := fillDense(rng, New(k, n))
		bt := fillDense(rng, New(n, k))
		at := fillDense(rng, New(k, m))
		checkMatMulFamily(t, "dense", a, b, bt, at, denseSchedules(rng, k))
	}
}

// TestMatMulFamilySpecialValues puts NaN and ±Inf in b and a single exact
// zero in a, in the middle of a 4-row block and on a step whose b row
// holds an Inf: with a non-finite b the whole call (for MatMulBT, each
// K-panel holding one) takes the zero-skip path, since the micro-kernel's
// 0×Inf would be NaN.
func TestMatMulFamilySpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	SetMaxWorkers(4)
	t.Cleanup(func() {
		SetMaxWorkers(0)
		SetScheduleSource(nil)
	})
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for iter := 0; iter < 8; iter++ {
		m, k, n := 8+rng.Intn(60), 2+rng.Intn(60), 16+rng.Intn(50)
		a := fillDense(rng, New(m, k))
		b := fillDense(rng, New(k, n))
		bt := fillDense(rng, New(n, k))
		at := fillDense(rng, New(k, m))
		for s := 0; s < 3; s++ {
			v := specials[rng.Intn(len(specials))]
			b.Data()[rng.Intn(k)*n+rng.Intn(n)] = v
			bt.Data()[rng.Intn(n)*k+rng.Intn(k)] = v
		}
		// Row 5 sits in the middle of the second 4-row block; step p of b
		// (and column p of bt) gets an Inf where the zero meets it.
		p := k / 2
		zero := float32(0)
		if iter%2 == 1 {
			zero = float32(math.Copysign(0, -1))
		}
		a.Data()[5*k+p] = zero
		at.Data()[p*m+5] = zero
		b.Data()[p*n+rng.Intn(n)] = float32(math.Inf(1))
		bt.Data()[rng.Intn(n)*k+p] = float32(math.Inf(-1))
		checkMatMulFamily(t, "special", a, b, bt, at, denseSchedules(rng, k))
	}
}

// fillReLU fills a tensor like a ReLU output or its masked gradient: each
// element is ±0 with probability 1/2, else a normal; then a few whole rows
// and columns of the 2-D view are zeroed (dead units, empty batch rows).
func fillReLU(rng *rand.Rand, x *Tensor) *Tensor {
	d := x.Data()
	for i := range d {
		switch rng.Intn(4) {
		case 0:
			d[i] = 0
		case 1:
			d[i] = float32(math.Copysign(0, -1))
		default:
			d[i] = float32(rng.NormFloat64())
		}
	}
	rows, cols := x.Rows(), x.Cols()
	for z := 0; z < 2; z++ {
		r, c := rng.Intn(rows), rng.Intn(cols)
		clear(d[r*cols : (r+1)*cols])
		for i := 0; i < rows; i++ {
			d[i*cols+c] = 0
		}
	}
	return x
}

// sparseNs are the sweep's output widths: tails of 8 and more columns
// (sgemm4x8), tails under 8 (saxpy4), b rows read in place (n ≤ 64) and
// packed (n > 64).
var sparseNs = []int{8, 13, 16, 24, 31, 64, 72, 90, 130}

// TestMatMulFamilySparseBitIdentity sweeps ReLU-sparse operands against a
// finite b: nearly every 4-row block holds a ±0, and all of them now run
// the micro-kernels, so each zero's term is computed where the references
// skip it. The last leg takes a from im2col of a ReLU'd, zero-padded
// input, the pattern conv layers feed MatMul and MatMulAT.
func TestMatMulFamilySparseBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	SetMaxWorkers(4)
	t.Cleanup(func() {
		SetMaxWorkers(0)
		SetScheduleSource(nil)
	})
	for iter, n := range sparseNs {
		m, k := 1+rng.Intn(200), 1+rng.Intn(300)
		a := fillReLU(rng, New(m, k))
		b := fillMixed(rng, New(k, n))
		bt := fillMixed(rng, New(n, k))
		at := fillReLU(rng, New(k, m))
		checkMatMulFamily(t, "sparse", a, b, bt, at, denseSchedules(rng, k))

		g := ConvGeom{InH: 4 + iter, InW: 5, InC: 1 + iter%3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		x := fillReLU(rng, New(2, g.InH, g.InW, g.InC))
		cols := Im2Col(x, g)
		kc := cols.Cols()
		w := fillMixed(rng, New(kc, n))
		dy := fillReLU(rng, New(cols.Rows(), n))
		// The conv forward, its input gradient and its weight gradient.
		wantMM, wantBT, wantAT := MatMulNaive(cols, w), MatMulBTNaive(dy, w), MatMulATNaive(cols, dy)
		for _, sch := range denseSchedules(rng, kc) {
			SetScheduleSource(testForce{sch})
			assertBitsEqual(t, "im2col MatMul "+sch.String(), MatMul(cols, w), wantMM)
			assertBitsEqual(t, "im2col MatMulBT "+sch.String(), MatMulBT(dy, w), wantBT)
			assertBitsEqual(t, "im2col MatMulAT "+sch.String(), MatMulAT(cols, dy), wantAT)
			SetScheduleSource(nil)
		}
	}
}

// TestMatMulBTLatePanelSpecials puts NaN or ±Inf only in a late K-panel of
// MatMulBT's b, under a ReLU-sparse a: the earlier panels run the
// micro-kernels, the late one must take the zero-skip path.
func TestMatMulBTLatePanelSpecials(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	SetMaxWorkers(4)
	t.Cleanup(func() {
		SetMaxWorkers(0)
		SetScheduleSource(nil)
	})
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for iter := 0; iter < 6; iter++ {
		m, k, n := 8+rng.Intn(60), 300+rng.Intn(100), sparseNs[rng.Intn(len(sparseNs))]
		a := fillReLU(rng, New(m, k))
		bt := fillMixed(rng, New(n, k))
		// Every row of a has a ±0 at p (column p is among the last 20), so
		// each output element meets 0×special if the gate lets it through.
		p := k - 1 - rng.Intn(20)
		for i := 0; i < m; i++ {
			a.Data()[i*k+p] = 0
		}
		bt.Data()[rng.Intn(n)*k+p] = specials[iter%len(specials)]
		want := MatMulBTNaive(a, bt)
		for _, sch := range []Schedule{{}, {TileK: 64, Workers: 1}, {TileK: 100, Workers: 4, SerialBelow: 1}} {
			SetScheduleSource(testForce{sch})
			assertBitsEqual(t, "late-panel MatMulBT "+sch.String(), MatMulBT(a, bt), want)
			SetScheduleSource(nil)
		}
	}
}

// randGeom draws a conv/pool geometry with at least one output position,
// covering non-unit strides, padding, and 1-wide degenerate planes.
func randGeom(rng *rand.Rand) ConvGeom {
	for {
		g := ConvGeom{
			InH: 1 + rng.Intn(10), InW: 1 + rng.Intn(10), InC: 1 + rng.Intn(5),
			KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3),
			StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3),
			PadH: rng.Intn(3), PadW: rng.Intn(3),
		}
		if g.InH+2*g.PadH >= g.KH && g.InW+2*g.PadW >= g.KW {
			return g
		}
	}
}

func convSchedules() []Schedule {
	return []Schedule{
		{},                           // fast variant, serial heuristics
		{Workers: 4, SerialBelow: 1}, // fast variant, forced parallel
		{Kernel: "fast", Workers: 1}, // fast variant, forced serial
	}
}

func TestConvFamilyBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	SetMaxWorkers(4)
	t.Cleanup(func() {
		SetMaxWorkers(0)
		SetScheduleSource(nil)
	})
	for iter := 0; iter < 40; iter++ {
		g := randGeom(rng)
		batch := 1 + rng.Intn(4)
		x := fillMixed(rng, New(batch, g.InH, g.InW, g.InC))
		oh, ow := g.OutH(), g.OutW()
		cols := fillMixed(rng, New(batch*oh*ow, g.KH*g.KW*g.InC))

		wantIm := Im2ColNaive(x, g)
		wantCol := Col2ImNaive(cols, batch, g)
		wantMP, wantArg := MaxPool2DNaive(x, g)
		wantGap := GlobalAvgPoolNaive(x)
		for _, sch := range convSchedules() {
			SetScheduleSource(testForce{sch})
			assertBitsEqual(t, "Im2Col "+sch.String(), Im2Col(x, g), wantIm)
			assertBitsEqual(t, "Col2Im "+sch.String(), Col2Im(cols, batch, g), wantCol)
			gotMP, gotArg := MaxPool2D(x, g)
			assertBitsEqual(t, "MaxPool2D "+sch.String(), gotMP, wantMP)
			for i := range gotArg {
				if gotArg[i] != wantArg[i] {
					t.Fatalf("MaxPool2D %s: argmax %d = %d, want %d", sch.String(), i, gotArg[i], wantArg[i])
				}
			}
			assertBitsEqual(t, "GlobalAvgPool "+sch.String(), GlobalAvgPool(x), wantGap)

			// Backward scatters: same body either path; the forced-parallel
			// leg checks chunk disjointness under -race.
			grad := fillMixed(rng, New(batch, g.InC))
			assertBitsEqual(t, "GlobalAvgPoolBackward "+sch.String(),
				GlobalAvgPoolBackward(grad, x.Shape()), GlobalAvgPoolBackward(grad, x.Shape()))
			pg := fillMixed(rng, New(batch, oh, ow, g.InC))
			assertBitsEqual(t, "MaxPool2DBackward "+sch.String(),
				MaxPool2DBackward(pg, wantArg, x.Shape()), MaxPool2DBackward(pg, wantArg, x.Shape()))
			SetScheduleSource(nil)
		}
	}
}

// TestSIMDHelpersMatchScalar pins the assembly helpers to the scalar
// bodies bit for bit: one multiply then one add per element, no FMA.
func TestSIMDHelpersMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(130) // crosses the 8- and 32-lane boundaries
		dst := fillMixed(rng, New(n))
		x := fillMixed(rng, New(n))
		a := float32(rng.NormFloat64())

		wantAxpy := dst.Clone()
		saxpyGeneric(wantAxpy.Data(), x.Data(), a)
		gotAxpy := dst.Clone()
		saxpy(gotAxpy.Data(), x.Data(), a)
		assertBitsEqual(t, "saxpy", gotAxpy, wantAxpy)

		wantAdd := dst.Clone()
		vaddGeneric(wantAdd.Data(), x.Data())
		gotAdd := dst.Clone()
		vadd(gotAdd.Data(), x.Data())
		assertBitsEqual(t, "vadd", gotAdd, wantAdd)

		d0, d1, d2, d3 := dst.Clone(), dst.Clone(), dst.Clone(), dst.Clone()
		w0, w1, w2, w3 := dst.Clone(), dst.Clone(), dst.Clone(), dst.Clone()
		a0, a1, a2, a3 := float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())
		saxpy4(d0.Data(), d1.Data(), d2.Data(), d3.Data(), x.Data(), a0, a1, a2, a3)
		saxpy4Generic(w0.Data(), w1.Data(), w2.Data(), w3.Data(), x.Data(), a0, a1, a2, a3)
		assertBitsEqual(t, "saxpy4 row0", d0, w0)
		assertBitsEqual(t, "saxpy4 row1", d1, w1)
		assertBitsEqual(t, "saxpy4 row2", d2, w2)
		assertBitsEqual(t, "saxpy4 row3", d3, w3)
	}

	// sgemm4x16 and sgemm4x8: random leading dimensions and both a-stride
	// layouts (MatMul's rows of a and MatMulAT's adjacent columns).
	for iter := 0; iter < 50; iter++ {
		k := 1 + rng.Intn(70)
		ldc, ldb := 16+rng.Intn(20), 16+rng.Intn(20)
		rs, ps := k, 1
		if iter%2 == 1 {
			rs, ps = 1, 4+rng.Intn(8)
		}
		c := fillMixed(rng, New(3*ldc+16))
		a := fillMixed(rng, New(3*rs+(k-1)*ps+1))
		b := fillMixed(rng, New((k-1)*ldb+16))
		want := c.Clone()
		sgemm4x16Generic(want.Data(), ldc, a.Data(), rs, ps, b.Data(), ldb, k)
		got := c.Clone()
		sgemm4x16(got.Data(), ldc, a.Data(), rs, ps, b.Data(), ldb, k)
		assertBitsEqual(t, "sgemm4x16", got, want)

		want8 := c.Clone()
		sgemm4x8Generic(want8.Data(), ldc, a.Data(), rs, ps, b.Data(), ldb, k)
		got8 := c.Clone()
		sgemm4x8(got8.Data(), ldc, a.Data(), rs, ps, b.Data(), ldb, k)
		assertBitsEqual(t, "sgemm4x8", got8, want8)
	}
}

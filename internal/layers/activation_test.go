package layers

import (
	"math"
	"testing"

	"nautilus/internal/tensor"
)

// tanh32Grid walks [-10,10] in steps of 1e-5 as float32 inputs.
func tanh32Grid(fn func(x float32)) {
	for i := -1000000; i <= 1000000; i++ {
		fn(float32(float64(i) * 1e-5))
	}
}

func TestTanh32Accuracy(t *testing.T) {
	worst, at := 0.0, float32(0)
	tanh32Grid(func(x float32) {
		if d := math.Abs(float64(tanh32(x)) - math.Tanh(float64(x))); d > worst {
			worst, at = d, x
		}
	})
	if worst > 1e-6 {
		t.Fatalf("max |tanh32 - tanh| = %.3g at x=%v, want <= 1e-6", worst, at)
	}
	t.Logf("max |tanh32 - tanh| over [-10,10] = %.3g at x=%v", worst, at)
}

func TestTanh32OddAndSaturating(t *testing.T) {
	tanh32Grid(func(x float32) {
		if got, want := tanh32(-x), -tanh32(x); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("tanh32(-%v) = %v, want -tanh32(%v) = %v", x, got, x, want)
		}
		if y := tanh32(x); y > 1 || y < -1 {
			t.Fatalf("tanh32(%v) = %v outside [-1,1]", x, y)
		}
	})
	top := tanh32(tanh32Clamp)
	if 1-top > 1e-6 {
		t.Fatalf("tanh32 at the clamp = %v, want within 1e-6 of 1", top)
	}
	for _, x := range []float32{tanh32Clamp + 1e-3, 8, 20, 1e6, float32(math.Inf(1))} {
		if got := tanh32(x); got != top {
			t.Fatalf("tanh32(%v) = %v, want the clamp value %v", x, got, top)
		}
		if got := tanh32(-x); got != -top {
			t.Fatalf("tanh32(%v) = %v, want %v", -x, got, -top)
		}
	}
	if y := tanh32(float32(math.NaN())); !math.IsNaN(float64(y)) {
		t.Fatalf("tanh32(NaN) = %v, want NaN", y)
	}
}

// TestGeLUMatchesFloat64 checks the float32 GeLU forward and derivative
// against the float64 tanh formula. Stated bounds, relative to 1+|x| since
// the function grows linearly: forward 5e-7, derivative 2e-6 (measured
// ≈2.1e-7 and ≈7.4e-7 over [-10,10]).
func TestGeLUMatchesFloat64(t *testing.T) {
	const fwdBound, derivBound = 5e-7, 2e-6
	const n = 200001
	z := tensor.New(n)
	zd := z.Data()
	for i := range zd {
		zd[i] = float32(-10 + 20*float64(i)/float64(n-1))
	}
	ones := tensor.New(n)
	for i := range ones.Data() {
		ones.Data()[i] = 1
	}
	fwd := applyActivation(ActGeLU, z).Data()
	deriv := activationBackward(ActGeLU, z, ones).Data()
	for i, x32 := range zd {
		x := float64(x32)
		th := math.Tanh(geluC * (x + 0.044715*x*x*x))
		wantF := 0.5 * x * (1 + th)
		wantD := 0.5*(1+th) + 0.5*x*(1-th*th)*geluC*(1+3*0.044715*x*x)
		scale := 1 + math.Abs(x)
		if e := math.Abs(float64(fwd[i])-wantF) / scale; e > fwdBound {
			t.Fatalf("gelu(%v) = %v, float64 %v: error %.3g·(1+|x|) > %g", x, fwd[i], wantF, e, fwdBound)
		}
		if e := math.Abs(float64(deriv[i])-wantD) / scale; e > derivBound {
			t.Fatalf("gelu'(%v) = %v, float64 %v: error %.3g·(1+|x|) > %g", x, deriv[i], wantD, e, derivBound)
		}
	}
}

// TestReLUBranchFreeBitIdentity compares the masked ReLU forward and
// backward against the branch form (z > 0 keeps the value, everything
// else leaves the output's +0) on a strided sweep of all 2^32 float32 bit
// patterns plus the edge values: ±0, ±Inf, NaNs of either sign with
// payloads, ± subnormals and ±MaxFloat32.
func TestReLUBranchFreeBitIdentity(t *testing.T) {
	const stride = 4093 // prime, so the sweep hits every exponent and low-bit mix
	var zs []float32
	for u := uint64(0); u < 1<<32; u += stride {
		zs = append(zs, math.Float32frombits(uint32(u)))
	}
	for _, u := range []uint32{
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fc12345, 0xffbfffff, // NaNs
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // ± subnormals
		0x00800000, 0x80800000, // ± smallest normals
		0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	} {
		zs = append(zs, math.Float32frombits(u))
	}
	// The upstream gradient cycles through values whose bits a wrong mask
	// would visibly change, −0 and a NaN payload included.
	gvals := []float32{1.5, -2.25, float32(math.Copysign(0, -1)), math.Float32frombits(0x7fc0beef), -3e-39, math.MaxFloat32}
	gs := make([]float32, len(zs))
	for i := range gs {
		gs[i] = gvals[i%len(gvals)]
	}
	z := tensor.FromSlice(zs, len(zs))
	g := tensor.FromSlice(gs, len(gs))
	fwd := applyActivation(ActReLU, z).Data()
	bwd := activationBackward(ActReLU, z, g).Data()
	for i, v := range zs {
		var wantF, wantB float32
		if v > 0 {
			wantF, wantB = v, gs[i]
		}
		if math.Float32bits(fwd[i]) != math.Float32bits(wantF) {
			t.Fatalf("relu(%08x) = %08x, want %08x", math.Float32bits(v), math.Float32bits(fwd[i]), math.Float32bits(wantF))
		}
		if math.Float32bits(bwd[i]) != math.Float32bits(wantB) {
			t.Fatalf("relu'(%08x)·%08x = %08x, want %08x", math.Float32bits(v), math.Float32bits(gs[i]), math.Float32bits(bwd[i]), math.Float32bits(wantB))
		}
	}
}

// Package layers implements the neural-network layers used by the Nautilus
// substrate: dense, embedding, normalization, attention, convolution,
// pooling, merge layers, and composite blocks (transformer, residual,
// adapter). Every layer follows the pure-function contract of graph.Layer:
// parameters live in the layer, activations travel through the cache.
package layers

import (
	"fmt"
	"math"
	"sync/atomic"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

// Activation names accepted by layers with a fused nonlinearity.
const (
	ActNone    = "none"
	ActReLU    = "relu"
	ActGeLU    = "gelu"
	ActTanh    = "tanh"
	ActSigmoid = "sigmoid"
)

const geluC = 0.7978845608028654 // sqrt(2/pi)

// GeLU and tanh run in float32 on tanh32, a rational approximation, so
// unlike the matmul family they are not bit-identical to a float64
// reference: |tanh32(x) − tanh(x)| ≤ 1e-6 on all of ℝ (measured ≈4e-7).

// tanh32Clamp is where tanh32 saturates: beyond it tanh rounds to ±1 in
// float32.
const tanh32Clamp = 7.90531110763549805

// tanh32 is the odd [13/6] rational approximation of tanh used by Eigen's
// float kernels: x·P(x²)/Q(x²) with the input clamped to ±tanh32Clamp.
// It is exactly odd, and NaN passes through.
func tanh32(x float32) float32 {
	if x > tanh32Clamp {
		x = tanh32Clamp
	} else if x < -tanh32Clamp {
		x = -tanh32Clamp
	}
	x2 := x * x
	p := x2*-2.76076847742355e-16 + 2.00018790482477e-13
	p = x2*p + -8.60467152213735e-11
	p = x2*p + 5.12229709037114e-08
	p = x2*p + 1.48572235717979e-05
	p = x2*p + 6.37261928875436e-04
	p = x2*p + 4.89352455891786e-03
	q := x2*1.19825839466702e-06 + 1.18534705686654e-04
	q = x2*q + 2.26843463243900e-03
	q = x2*q + 4.89352518554385e-03
	return x * p / q
}

// reluMask returns all ones when the float32 with bits u is > 0 (positive
// subnormals through +Inf, bits 1..0x7f800000) and zero for ±0, negatives
// and every NaN. ReLU applies it with an AND instead of branching on
// z > 0, which mispredicts about half the time on real activations; the
// output bits are the branch form's (the masked-off +0 is what the
// zero-filled output held).
func reluMask(u uint32) uint32 {
	return uint32((int64(u-1) - 0x7f800000) >> 63)
}

// applyActivation computes act(z) elementwise into a new tensor.
func applyActivation(act string, z *tensor.Tensor) *tensor.Tensor {
	if act == ActNone {
		return z
	}
	out := tensor.NewFrom(z, z.Shape()...)
	zd, od := z.Data(), out.Data()
	work := len(zd)
	if act != ActReLU {
		work *= 8 // transcendental cost dominates
	}
	switch act {
	case ActReLU:
		tensor.Parallel(len(zd), work, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				u := math.Float32bits(zd[i])
				od[i] = math.Float32frombits(u & reluMask(u))
			}
		})
	case ActGeLU:
		tensor.Parallel(len(zd), work, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x := zd[i]
				od[i] = 0.5 * x * (1 + tanh32(geluC*(x+0.044715*x*x*x)))
			}
		})
	case ActTanh:
		tensor.Parallel(len(zd), work, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				od[i] = tanh32(zd[i])
			}
		})
	case ActSigmoid:
		tensor.Parallel(len(zd), work, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				od[i] = float32(1 / (1 + math.Exp(-float64(zd[i]))))
			}
		})
	default:
		panic(fmt.Sprintf("layers: unknown activation %q", act))
	}
	return out
}

// activationBackward computes dL/dz = g ⊙ act'(z) given pre-activation z.
func activationBackward(act string, z, g *tensor.Tensor) *tensor.Tensor {
	if act == ActNone {
		return g
	}
	out := tensor.NewFrom2(z, g, z.Shape()...)
	zd, gd, od := z.Data(), g.Data(), out.Data()
	work := len(zd)
	if act != ActReLU {
		work *= 8
	}
	switch act {
	case ActReLU:
		tensor.Parallel(len(zd), work, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				od[i] = math.Float32frombits(math.Float32bits(gd[i]) & reluMask(math.Float32bits(zd[i])))
			}
		})
	case ActGeLU:
		tensor.Parallel(len(zd), work, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x := zd[i]
				th := tanh32(geluC * (x + 0.044715*x*x*x))
				du := geluC * (1 + 3*0.044715*x*x)
				od[i] = gd[i] * (0.5*(1+th) + 0.5*x*(1-th*th)*du)
			}
		})
	case ActTanh:
		tensor.Parallel(len(zd), work, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				th := tanh32(zd[i])
				od[i] = gd[i] * (1 - th*th)
			}
		})
	case ActSigmoid:
		tensor.Parallel(len(zd), work, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s := 1 / (1 + math.Exp(-float64(zd[i])))
				od[i] = gd[i] * float32(s*(1-s))
			}
		})
	default:
		panic(fmt.Sprintf("layers: unknown activation %q", act))
	}
	return out
}

// activationFLOPsPerElem returns the approximate FLOPs one activation
// application costs per element, used by the analytical cost model.
func activationFLOPsPerElem(act string) int64 {
	switch act {
	case ActNone:
		return 0
	case ActReLU:
		return 1
	default:
		return 8 // transcendental approximations
	}
}

// Activation is a standalone elementwise nonlinearity layer.
type Activation struct {
	Act string
}

// NewActivation returns an activation layer of the given kind.
func NewActivation(act string) *Activation { return &Activation{Act: act} }

func (l *Activation) Type() string           { return "activation" }
func (l *Activation) Config() map[string]any { return map[string]any{"act": l.Act} }
func (l *Activation) Params() []*graph.Param { return nil }
func (l *Activation) OutShape(in [][]int) []int {
	requireInputs("activation", in, 1)
	return append([]int(nil), in[0]...)
}

func (l *Activation) FLOPsPerRecord(in [][]int) int64 {
	return int64(tensor.NumElems(in[0])) * activationFLOPsPerElem(l.Act)
}

func (l *Activation) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	return applyActivation(l.Act, inputs[0]), nil
}

func (l *Activation) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	return []*tensor.Tensor{activationBackward(l.Act, inputs[0], gradOut)}, nil
}

// Dropout zeroes a fraction of activations during training and rescales the
// rest; it is the identity in evaluation mode. The mask is drawn from a
// deterministic per-forward counter so runs are reproducible.
type Dropout struct {
	Rate float64

	calls atomic.Uint64 // forward-call counter; each call keys its own mask stream
}

// NewDropout returns a dropout layer with the given drop rate in [0,1).
func NewDropout(rate float64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("layers: dropout rate %v out of [0,1)", rate))
	}
	return &Dropout{Rate: rate}
}

func (l *Dropout) Type() string           { return "dropout" }
func (l *Dropout) Config() map[string]any { return map[string]any{"rate": l.Rate} }
func (l *Dropout) Params() []*graph.Param { return nil }

func (l *Dropout) OutShape(in [][]int) []int {
	requireInputs("dropout", in, 1)
	return append([]int(nil), in[0]...)
}

func (l *Dropout) FLOPsPerRecord(in [][]int) int64 {
	return int64(tensor.NumElems(in[0]))
}

func (l *Dropout) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	//lint:ignore floateq Rate==0 is the exact configured no-op sentinel
	if !train || l.Rate == 0 {
		return x, nil
	}
	mask := tensor.NewFrom(x, x.Shape()...)
	out := tensor.NewFrom(x, x.Shape()...)
	keep := float32(1 - l.Rate)
	inv := 1 / keep
	// Key an independent xorshift stream off the call number (splitmix64
	// finalizer) instead of mutating layer state: Forward stays pure per
	// the Layer contract and safe under concurrent fused execution.
	s := l.calls.Add(1) * 0x9e3779b97f4a7c15
	s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9
	s = (s ^ (s >> 27)) * 0x94d049bb133111eb
	s ^= s >> 31
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	md, xd, od := mask.Data(), x.Data(), out.Data()
	for i := range xd {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		if float32(s>>40)/float32(1<<24) < keep {
			md[i] = inv
			od[i] = xd[i] * inv
		}
	}
	return out, mask
}

func (l *Dropout) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	if cache == nil {
		return []*tensor.Tensor{gradOut}, nil
	}
	mask := cache.(*tensor.Tensor)
	return []*tensor.Tensor{tensor.Mul(gradOut, mask)}, nil
}

func requireInputs(typ string, in [][]int, n int) {
	if len(in) != n {
		panic(fmt.Sprintf("layers: %s expects %d input(s), got %d", typ, n, len(in)))
	}
}

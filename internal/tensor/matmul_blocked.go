package tensor

import (
	"math/bits"
	"sync"
)

// Blocked, schedule-parameterized matmul variants. The strategy: keep the
// seed's per-output-element accumulation chain (ascending p, one multiply
// then one add per term, exact-zero a-coefficients skipped) but feed it
// through the SIMD micro-kernels and reorganize the loops for locality:
//
//   - output rows go four at a time: a 4-row block whose coefficients are
//     all nonzero runs the register-blocked sgemm4x16 micro-kernel, which
//     holds a 4×16 output tile in registers across the whole reduction;
//     a block holding an exact zero takes the per-step saxpy4/saxpy path
//     that skips the zero's terms;
//   - the micro-kernel reads b from a strip of 16 columns packed into a
//     contiguous buffer, shared by up to rowGroup blocks, so large-n b
//     rows never alias in L1;
//   - TileK blocks the reduction dimension so the b panel in flight stays
//     cache-resident across the whole row sweep (and, for MatMulBT, so the
//     transposed panel can be packed once into a contiguous slab).
//
// Loop blocking never changes which terms reach an output element or in
// what order — each element still sees its terms in ascending p — so every
// variant is bit-identical to the naive reference for any tile sizes.

// defaultTileM is the output-row block fed to the multi-row micro-kernel;
// a schedule's TileM below it forces the single-row saxpy stream.
const defaultTileM = 4

// defaultTileK is the reduction-panel depth used when the schedule does
// not specify one; 256 float32 rows of a moderate n keep the panel within
// L2 while amortizing MatMulBT's packing pass.
const defaultTileK = 256

// packSteps bounds the reduction steps one packed b strip holds:
// 256 steps × 16 columns of float32 is 16 KiB, which stays L1-resident
// while the row group's blocks stream it.
const packSteps = 256

// rowGroup is how many 4-row blocks share one packed strip; it is the
// width of the zero-free block mask.
const rowGroup = 64

// stripPool recycles packed-strip buffers across calls and goroutines.
var stripPool = sync.Pool{New: func() any { return new([packSteps * 16]float32) }}

// matMulBlocked computes out += a×b over row blocks, reading b's rows
// directly (they are already contiguous panels).
func matMulBlocked(out, a, b *Tensor, sch Schedule) {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	tm := sch.TileM
	if tm < 1 {
		tm = defaultTileM
	}
	tk := sch.TileK
	if tk < 1 || tk > k {
		tk = k
	}
	parallelFor(sch, m, m*k*n, func(lo, hi int) {
		for kk := 0; kk < k; kk += tk {
			gemmRows(out.data, n, a.data[kk:], k, 1, b.data[kk*n:], min(tk, k-kk), lo, hi, tm)
		}
	})
}

// matMulBTPacked computes a × bᵀ by packing K-blocks of bᵀ into a
// contiguous [tk, n] slab, then running the same row-blocked kernels
// against the slab. Packing turns MatMulBT's column-strided b accesses
// into the contiguous panels MatMul enjoys and gives the family's
// exact-zero skip to the BT form for free.
func matMulBTPacked(out, a, b *Tensor, sch Schedule) {
	m, k := a.Rows(), a.Cols()
	n := b.Rows()
	tm := sch.TileM
	if tm < 1 {
		tm = defaultTileM
	}
	tk := sch.TileK
	if tk < 1 {
		tk = defaultTileK
	}
	if tk > k {
		tk = k
	}
	// One packed slab reused across K-blocks; derived from the operands'
	// allocator so step-scoped callers stay arena-pooled.
	pack := NewFrom2(a, b, tk, n)
	for kk := 0; kk < k; kk += tk {
		ke := kk + tk
		if ke > k {
			ke = k
		}
		// pack[p-kk][j] = b[j][p]: contiguous writes, strided reads.
		for p := kk; p < ke; p++ {
			pr := pack.data[(p-kk)*n : (p-kk+1)*n]
			for j := range pr {
				pr[j] = b.data[j*k+p]
			}
		}
		parallelFor(sch, m, m*(ke-kk)*n, func(lo, hi int) {
			gemmRows(out.data, n, a.data[kk:], k, 1, pack.data, ke-kk, lo, hi, tm)
		})
	}
}

// matMulATBlocked computes aᵀ × b by reading a's coefficients in place:
// a 4-row output block takes 4 adjacent columns of a's row p per step
// (stride m between steps), so aᵀ is never packed — conv weight
// gradients have a very large k, and a packed copy would cost a k×m slab
// per call. TileK blocks the reduction so the b panel in flight stays
// cache-resident across the row sweep; TileM is not used.
func matMulATBlocked(out, a, b *Tensor, sch Schedule) {
	k, m, n := a.Rows(), a.Cols(), b.Cols()
	tk := sch.TileK
	if tk < 1 {
		tk = defaultTileK
	}
	if tk > k {
		tk = k
	}
	parallelFor(sch, m, m*k*n, func(lo, hi int) {
		for kk := 0; kk < k; kk += tk {
			gemmRows(out.data, n, a.data[kk*m:], 1, m, b.data[kk*n:], min(tk, k-kk), lo, hi, defaultTileM)
		}
	})
}

// gemmRows accumulates output rows [lo,hi) of the row-major [·,n] out over
// steps reduction steps: out[i*n+j] += a[i*rs+p*ps] · b[p*n+j], p
// ascending. The coefficients are read in place through two strides: rs
// between output rows, ps between steps (MatMul and the packed MatMulBT
// read rows of a, rs=k ps=1; MatMulAT reads adjacent columns of a's row
// p, rs=1 ps=m). a and b start at the panel's first step. Rows go in
// groups of up to rowGroup 4-row blocks unless tm < 4; leftover rows go
// one at a time.
func gemmRows(out []float32, n int, a []float32, rs, ps int, b []float32, steps, lo, hi, tm int) {
	i := lo
	if tm >= 4 {
		for i+4 <= hi {
			nb := min((hi-i)/4, rowGroup)
			gemmGroup(out, n, a, rs, ps, b, steps, i, nb)
			i += 4 * nb
		}
	}
	for ; i < hi; i++ {
		row1(out[i*n:(i+1)*n], a[i*rs:], ps, b, steps)
	}
}

// gemmGroup runs nb 4-row blocks starting at output row i0. Each block's
// 4×steps coefficients are scanned once for exact zeros (±0). A block
// holding one takes block4Skip. The zero-free blocks run sgemm4x16 over
// each 16-column strip of b, packed once per strip into a contiguous
// buffer they all share, and saxpy4 over the leftover columns.
func gemmGroup(out []float32, n int, a []float32, rs, ps int, b []float32, steps, i0, nb int) {
	var dense uint64 // bit r set: block r is zero-free
	for r := 0; r < nb; r++ {
		i := i0 + 4*r
		if hasZero4(a[i*rs:], rs, ps, steps) {
			block4Skip(out[i*n:], n, a[i*rs:], rs, ps, b, steps)
		} else {
			dense |= 1 << r
		}
	}
	if dense == 0 {
		return
	}
	n16 := n &^ 15
	if n16 > 0 {
		buf := stripPool.Get().(*[packSteps * 16]float32)
		for p0 := 0; p0 < steps; p0 += packSteps {
			sp := min(packSteps, steps-p0)
			for j := 0; j < n16; j += 16 {
				for p := 0; p < sp; p++ {
					*(*[16]float32)(buf[p*16:]) = *(*[16]float32)(b[(p0+p)*n+j:])
				}
				for d := dense; d != 0; d &= d - 1 {
					i := i0 + 4*bits.TrailingZeros64(d)
					sgemm4x16(out[i*n+j:], n, a[i*rs+p0*ps:], rs, ps, buf[:], 16, sp)
				}
			}
		}
		stripPool.Put(buf)
	}
	if n16 == n {
		return
	}
	for d := dense; d != 0; d &= d - 1 {
		i := i0 + 4*bits.TrailingZeros64(d)
		c, ai := out[i*n:], a[i*rs:]
		o0, o1, o2, o3 := c[n16:n], c[n+n16:2*n], c[2*n+n16:3*n], c[3*n+n16:4*n]
		for p := 0; p < steps; p++ {
			q := p * ps
			saxpy4(o0, o1, o2, o3, b[p*n+n16:(p+1)*n], ai[q], ai[q+rs], ai[q+2*rs], ai[q+3*rs])
		}
	}
}

// hasZero4 reports whether any of a 4-row block's 4×steps coefficients is
// an exact zero of either sign.
func hasZero4(a []float32, rs, ps, steps int) bool {
	for p := 0; p < steps; p++ {
		q := p * ps
		//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
		if a[q] == 0 || a[q+rs] == 0 || a[q+2*rs] == 0 || a[q+3*rs] == 0 {
			return true
		}
	}
	return false
}

// block4Skip accumulates one 4-row block that holds an exact-zero
// coefficient: saxpy4 for steps whose four coefficients are nonzero,
// per-row saxpy otherwise, so a zero coefficient's term is skipped
// (0×Inf, 0×NaN and -0 accumulation would otherwise diverge from the
// reference).
func block4Skip(c []float32, n int, a []float32, rs, ps int, b []float32, steps int) {
	o0, o1, o2, o3 := c[:n], c[n:2*n], c[2*n:3*n], c[3*n:4*n]
	for p := 0; p < steps; p++ {
		q := p * ps
		a0, a1, a2, a3 := a[q], a[q+rs], a[q+2*rs], a[q+3*rs]
		bp := b[p*n : (p+1)*n]
		//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
		if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
			saxpy4(o0, o1, o2, o3, bp, a0, a1, a2, a3)
			continue
		}
		//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
		if a0 != 0 {
			saxpy(o0, bp, a0)
		}
		//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
		if a1 != 0 {
			saxpy(o1, bp, a1)
		}
		//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
		if a2 != 0 {
			saxpy(o2, bp, a2)
		}
		//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
		if a3 != 0 {
			saxpy(o3, bp, a3)
		}
	}
}

// row1 accumulates one output row c += Σ_p a[p*ps] · b[p*n:(p+1)*n],
// skipping exact-zero coefficients.
func row1(c, a []float32, ps int, b []float32, steps int) {
	n := len(c)
	for p := 0; p < steps; p++ {
		av := a[p*ps]
		//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
		if av == 0 {
			continue
		}
		saxpy(c, b[p*n:(p+1)*n], av)
	}
}

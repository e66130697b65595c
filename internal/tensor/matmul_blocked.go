package tensor

import (
	"math"
	"sync"
)

// Blocked, schedule-parameterized matmul variants. The strategy: keep the
// seed's per-output-element accumulation chain (ascending p, one multiply
// then one add per term) but feed it through the SIMD micro-kernels and
// reorganize the loops for locality:
//
//   - output rows go four at a time: each 4-row block runs the
//     register-blocked sgemm4x16 micro-kernel over 16-column strips and
//     sgemm4x8 over 8 leftover columns, holding the output tile in
//     registers across the whole reduction;
//   - a b row of at most narrowB floats is read in place; wider b is read
//     from a strip of 16 columns packed into a contiguous buffer, shared
//     by up to rowGroup blocks, so large-n b rows never alias in L1;
//   - TileK blocks the reduction dimension so the b panel in flight stays
//     cache-resident across the whole row sweep (and, for MatMulBT, so the
//     transposed panel can be packed once into a contiguous slab).
//
// Loop blocking never changes which terms reach an output element or in
// what order — each element still sees its terms in ascending p — so every
// variant is bit-identical to the naive reference for any tile sizes.
//
// The naive references skip every term whose a-coefficient is ±0; the
// micro-kernels do not, and need not while b is finite. Such a term adds
// ±0 (a ±0 coefficient times a finite value), which leaves any
// accumulator x ≠ −0 unchanged and turns +0 into +0. No accumulator is
// ever −0: outputs start at +0 (New and every Alloc zero-fill), and under
// round-to-nearest x + y = −0 only when both are −0. Only a NaN or ±Inf
// in b makes a skipped term matter (0×Inf and 0×NaN are NaN), so each
// call scans b once — MatMulBT once per packed K-panel — and a b holding
// one sends every row through row1, which skips zero terms.

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

// rowGroup is how many 4-row blocks share one packed strip.
const rowGroup = 64

// narrowB is the widest b row (in floats) the micro-kernels read in
// place. Strip packing exists to keep 4 KiB-strided b rows from aliasing
// in L1; rows of at most 256 bytes cannot, so packing them would only
// copy b into a buffer of the same layout.
const narrowB = 64

// stripPool recycles packed-strip buffers across calls and goroutines.
var stripPool = sync.Pool{New: func() any { return new([packSteps * 16]float32) }}

// allFinite reports whether v holds no NaN or ±Inf: a float32 is
// non-finite exactly when its exponent bits are all ones.
func allFinite(v []float32) bool {
	for _, x := range v {
		if math.Float32bits(x)&0x7f800000 == 0x7f800000 {
			return false
		}
	}
	return true
}

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
	finite := allFinite(b.data)
	parallelFor(sch, m, m*k*n, func(lo, hi int) {
		for kk := 0; kk < k; kk += tk {
			gemmRows(out.data, n, a.data[kk:], k, 1, b.data[kk*n:], min(tk, k-kk), lo, hi, tm, finite)
		}
	})
}

// matMulBTPacked computes a × bᵀ by packing K-blocks of bᵀ into a
// contiguous [tk, n] slab, then running the same row-blocked kernels
// against the slab. Packing turns MatMulBT's column-strided b accesses
// into the contiguous panels MatMul enjoys. Each packed panel is checked
// for non-finite values on its own, so only a panel holding one takes the
// zero-skip path.
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
		finite := allFinite(pack.data[:(ke-kk)*n])
		parallelFor(sch, m, m*(ke-kk)*n, func(lo, hi int) {
			gemmRows(out.data, n, a.data[kk:], k, 1, pack.data, ke-kk, lo, hi, tm, finite)
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
	finite := allFinite(b.data)
	parallelFor(sch, m, m*k*n, func(lo, hi int) {
		for kk := 0; kk < k; kk += tk {
			gemmRows(out.data, n, a.data[kk*m:], 1, m, b.data[kk*n:], min(tk, k-kk), lo, hi, defaultTileM, finite)
		}
	})
}

// gemmRows accumulates output rows [lo,hi) of the row-major [·,n] out over
// steps reduction steps: out[i*n+j] += a[i*rs+p*ps] · b[p*n+j], p
// ascending. The coefficients are read in place through two strides: rs
// between output rows, ps between steps (MatMul and the packed MatMulBT
// read rows of a, rs=k ps=1; MatMulAT reads adjacent columns of a's row
// p, rs=1 ps=m). a and b start at the panel's first step. Rows go in
// groups of up to rowGroup 4-row blocks unless tm < 4 or the panel of b
// is not finite (it holds a NaN or ±Inf); leftover rows, and all rows of
// a non-finite panel, go one at a time through row1, which skips zero
// coefficients as the references do.
func gemmRows(out []float32, n int, a []float32, rs, ps int, b []float32, steps, lo, hi, tm int, finite bool) {
	i := lo
	if tm >= 4 && finite {
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

// gemmGroup runs nb 4-row blocks starting at output row i0 against a
// finite b. Each block runs sgemm4x16 over b's 16-column strips — read in
// place when n ≤ narrowB, else packed once per strip into a contiguous
// buffer all nb blocks share — then sgemm4x8 over 8 leftover columns and
// saxpy4 over the rest.
func gemmGroup(out []float32, n int, a []float32, rs, ps int, b []float32, steps, i0, nb int) {
	n16 := n &^ 15
	if n16 > 0 && n > narrowB {
		buf := stripPool.Get().(*[packSteps * 16]float32)
		for p0 := 0; p0 < steps; p0 += packSteps {
			sp := min(packSteps, steps-p0)
			for j := 0; j < n16; j += 16 {
				for p := 0; p < sp; p++ {
					*(*[16]float32)(buf[p*16:]) = *(*[16]float32)(b[(p0+p)*n+j:])
				}
				for r := 0; r < nb; r++ {
					i := i0 + 4*r
					sgemm4x16(out[i*n+j:], n, a[i*rs+p0*ps:], rs, ps, buf[:], 16, sp)
				}
			}
		}
		stripPool.Put(buf)
	}
	for r := 0; r < nb; r++ {
		i := i0 + 4*r
		c, ai := out[i*n:], a[i*rs:]
		if n <= narrowB {
			for j := 0; j < n16; j += 16 {
				sgemm4x16(c[j:], n, ai, rs, ps, b[j:], n, steps)
			}
		}
		j := n16
		if n-j >= 8 {
			sgemm4x8(c[j:], n, ai, rs, ps, b[j:], n, steps)
			j += 8
		}
		if j == n {
			continue
		}
		o0, o1, o2, o3 := c[j:n], c[n+j:2*n], c[2*n+j:3*n], c[3*n+j:4*n]
		for p := 0; p < steps; p++ {
			q := p * ps
			saxpy4(o0, o1, o2, o3, b[p*n+j:(p+1)*n], ai[q], ai[q+rs], ai[q+2*rs], ai[q+3*rs])
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

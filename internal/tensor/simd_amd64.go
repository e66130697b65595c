//go:build amd64

package tensor

// AVX2 dispatch for the SIMD micro-kernels. Detection runs once at init
// via raw CPUID/XGETBV (no external dependencies): the OS must have
// enabled XSAVE state for the YMM registers and the CPU must advertise
// AVX2. Everything falls back to the portable scalar bodies otherwise, so
// results are identical either way — the assembly preserves scalar
// operation order per output element.

//go:noescape
func saxpyAsm(dst, x *float32, n int, a float32)

//go:noescape
func saxpy4Asm(d0, d1, d2, d3, x *float32, n int, a0, a1, a2, a3 float32)

//go:noescape
func vaddAsm(dst, x *float32, n int)

//go:noescape
func sgemm4x16Asm(c *float32, ldc int, a *float32, rs, ps int, b *float32, ldb, k int)

//go:noescape
func sgemm4x8Asm(c *float32, ldc int, a *float32, rs, ps int, b *float32, ldb, k int)

func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// hasAVX2 gates the assembly paths; resolved once at package init.
var hasAVX2 = detectAVX2()

// detectAVX2 reports whether both the CPU and the OS support AVX2:
// CPUID.1:ECX must show OSXSAVE+AVX, XCR0 must have the SSE and AVX state
// bits enabled by the OS, and CPUID.7.0:EBX must advertise AVX2.
func detectAVX2() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xlo, _ := xgetbvAsm(); xlo&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return ebx7&(1<<5) != 0
}

// saxpy computes dst[i] += a*x[i] for i in [0, len(dst)), in ascending
// order with one multiply then one add per element (never FMA).
func saxpy(dst, x []float32, a float32) {
	if len(dst) == 0 {
		return
	}
	if hasAVX2 {
		saxpyAsm(&dst[0], &x[0], len(dst), a)
		return
	}
	saxpyGeneric(dst, x, a)
}

// saxpy4 runs four axpy rows over a shared x: d<r>[i] += a<r>*x[i]. The
// rows are independent accumulators, so the interleaving across rows does
// not affect any single row's result.
func saxpy4(d0, d1, d2, d3, x []float32, a0, a1, a2, a3 float32) {
	if len(d0) == 0 {
		return
	}
	if hasAVX2 {
		saxpy4Asm(&d0[0], &d1[0], &d2[0], &d3[0], &x[0], len(d0), a0, a1, a2, a3)
		return
	}
	saxpy4Generic(d0, d1, d2, d3, x, a0, a1, a2, a3)
}

// vadd computes dst[i] += x[i] for i in [0, len(dst)).
func vadd(dst, x []float32) {
	if len(dst) == 0 {
		return
	}
	if hasAVX2 {
		vaddAsm(&dst[0], &x[0], len(dst))
		return
	}
	vaddGeneric(dst, x)
}

// sgemm4x16 accumulates one 4-row × 16-column output tile over k
// reduction steps: c[r*ldc+j] += a[r*rs+p*ps] * b[p*ldb+j] for p
// ascending, one multiply then one add per term. The tile stays in
// registers for the whole reduction. ±0 coefficients' terms are computed,
// not skipped, so callers pass a finite b only (see gemmGroup); k must be
// positive.
func sgemm4x16(c []float32, ldc int, a []float32, rs, ps int, b []float32, ldb, k int) {
	// Bounds checks for the assembly's furthest reads and writes.
	_ = c[3*ldc+15]
	_ = a[3*rs+(k-1)*ps]
	_ = b[(k-1)*ldb+15]
	if hasAVX2 {
		sgemm4x16Asm(&c[0], ldc, &a[0], rs, ps, &b[0], ldb, k)
		return
	}
	sgemm4x16Generic(c, ldc, a, rs, ps, b, ldb, k)
}

// sgemm4x8 is sgemm4x16 for a 4-row × 8-column tile, with the same
// operation order and the same finite-b contract.
func sgemm4x8(c []float32, ldc int, a []float32, rs, ps int, b []float32, ldb, k int) {
	// Bounds checks for the assembly's furthest reads and writes.
	_ = c[3*ldc+7]
	_ = a[3*rs+(k-1)*ps]
	_ = b[(k-1)*ldb+7]
	if hasAVX2 {
		sgemm4x8Asm(&c[0], ldc, &a[0], rs, ps, &b[0], ldb, k)
		return
	}
	sgemm4x8Generic(c, ldc, a, rs, ps, b, ldb, k)
}

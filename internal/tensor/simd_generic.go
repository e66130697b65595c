//go:build !amd64

package tensor

// Non-amd64 builds run the portable scalar micro-kernel bodies directly.

func saxpy(dst, x []float32, a float32) { saxpyGeneric(dst, x, a) }

func saxpy4(d0, d1, d2, d3, x []float32, a0, a1, a2, a3 float32) {
	saxpy4Generic(d0, d1, d2, d3, x, a0, a1, a2, a3)
}

func vadd(dst, x []float32) { vaddGeneric(dst, x) }

func sgemm4x16(c []float32, ldc int, a []float32, rs, ps int, b []float32, ldb, k int) {
	sgemm4x16Generic(c, ldc, a, rs, ps, b, ldb, k)
}

func sgemm4x8(c []float32, ldc int, a []float32, rs, ps int, b []float32, ldb, k int) {
	sgemm4x8Generic(c, ldc, a, rs, ps, b, ldb, k)
}

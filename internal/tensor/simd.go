package tensor

// Portable scalar bodies of the SIMD micro-kernels. The assembly variants
// must produce bit-identical results to these: one multiply then one add
// per output element, ascending index order.

func saxpyGeneric(dst, x []float32, a float32) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] += a * x[i]
	}
}

func saxpy4Generic(d0, d1, d2, d3, x []float32, a0, a1, a2, a3 float32) {
	x = x[:len(d0)]
	for i := range x {
		v := x[i]
		d0[i] += a0 * v
		d1[i] += a1 * v
		d2[i] += a2 * v
		d3[i] += a3 * v
	}
}

func vaddGeneric(dst, x []float32) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] += x[i]
	}
}

func sgemm4x16Generic(c []float32, ldc int, a []float32, rs, ps int, b []float32, ldb, k int) {
	sgemm4xWGeneric(16, c, ldc, a, rs, ps, b, ldb, k)
}

func sgemm4x8Generic(c []float32, ldc int, a []float32, rs, ps int, b []float32, ldb, k int) {
	sgemm4xWGeneric(8, c, ldc, a, rs, ps, b, ldb, k)
}

// sgemm4xWGeneric is the scalar body of the 4-row × w-column micro-kernels.
func sgemm4xWGeneric(w int, c []float32, ldc int, a []float32, rs, ps int, b []float32, ldb, k int) {
	for p := 0; p < k; p++ {
		bp := b[p*ldb : p*ldb+w]
		for r := 0; r < 4; r++ {
			av := a[r*rs+p*ps]
			cr := c[r*ldc : r*ldc+w]
			for j := range cr {
				cr[j] += av * bp[j]
			}
		}
	}
}

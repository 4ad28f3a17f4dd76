package blas

// gemvNoTrans4AVX applies four columns of the NoTrans Dgemv to y at once:
// y[i] = (((y[i] + t[0]·c0[i]) + t[1]·c1[i]) + t[2]·c2[i]) + t[3]·c3[i] for
// every i < len(y), each c at least len(y) long. Bit-identical to four
// axpyGemv calls in column order. Implemented in level2_amd64.s.
//
//go:noescape
func gemvNoTrans4AVX(y, c0, c1, c2, c3 []float64, t *[4]float64)

//go:build !amd64 || purego

package tensor

func axpy(a float64, x, y []float64) { axpyGeneric(a, x, y) }

func axpyRows(y, x, w []float64, stride int) { axpyRowsGeneric(y, x, w, stride) }

func axpyNonzeroRows(y, x, w []float64, stride int) { axpyNonzeroRowsGeneric(y, x, w, stride) }

func outerRows(g, x, y []float64, stride int) { outerRowsGeneric(g, x, y, stride) }

func outerNonzeroRows(g, x, y []float64, stride int) { outerNonzeroRowsGeneric(g, x, y, stride) }

func dotRows4(y, x, w []float64, stride int) { dotRows4Generic(y, x, w, stride) }

func relu(y []float64) { reluGeneric(y) }

func softmax(dst, src []float64) { softmaxGeneric(dst, src) }

func softmaxRows(m *Matrix, lo int) { softmaxEachRow(m, lo, 0) }

func mulRows4(y, x, w, bias []float64, rows, k, n, xstride, wstride, ystride int, trans bool) int {
	return 0
}

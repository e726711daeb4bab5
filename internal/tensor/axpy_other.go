//go:build !amd64 || purego

package tensor

func axpy(a float64, x, y []float64) { axpyGeneric(a, x, y) }

func axpyRows(y, x, w []float64, stride int) { axpyRowsGeneric(y, x, w, stride) }

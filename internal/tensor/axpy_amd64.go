//go:build amd64 && !purego

package tensor

// useAVX selects the assembly kernels of axpy_amd64.s. It is decided once,
// at package init: the CPU must report AVX and OSXSAVE, and the OS must have
// enabled the YMM register state in XCR0. Without all three the portable
// loops run, with the same results.
var useAVX = hasAVX()

func axpy(a float64, x, y []float64) {
	if useAVX {
		axpyAVX(a, x, y)
		return
	}
	axpyGeneric(a, x, y)
}

func axpyRows(y, x, w []float64, stride int) {
	if useAVX {
		axpyRowsAVX(y, x, w, stride)
		return
	}
	axpyRowsGeneric(y, x, w, stride)
}

func axpyNonzeroRows(y, x, w []float64, stride int) {
	if useAVX {
		axpyNonzeroRowsAVX(y, x, w, stride)
		return
	}
	axpyNonzeroRowsGeneric(y, x, w, stride)
}

func outerRows(g, x, y []float64, stride int) {
	if useAVX {
		outerRowsAVX(g, x, y, stride)
		return
	}
	outerRowsGeneric(g, x, y, stride)
}

func outerNonzeroRows(g, x, y []float64, stride int) {
	if useAVX {
		outerNonzeroRowsAVX(g, x, y, stride)
		return
	}
	outerNonzeroRowsGeneric(g, x, y, stride)
}

func dotRows(y, x, w []float64, stride int) {
	if useAVX {
		dotRowsAVX(y, x, w, stride)
		return
	}
	dotRowsGeneric(y, x, w, stride)
}

func dotRows4(y, x, w []float64, stride int) {
	if useAVX {
		dotRows4AVX(y, x, w, stride)
		return
	}
	dotRows4Generic(y, x, w, stride)
}

func relu(y []float64) {
	if useAVX {
		reluAVX(y)
		return
	}
	reluGeneric(y)
}

func softmax(dst, src []float64) {
	if useAVX {
		softmaxAVX(dst, src)
		return
	}
	softmaxGeneric(dst, src)
}

// hasAVX reports whether 256-bit AVX instructions may be executed.
func hasAVX() bool

// axpyAVX is axpyGeneric in 256-bit AVX: a broadcast a, then VMULPD followed
// by VADDPD over 8-, 4- and 1-element steps. Lengths are the caller's check.
//
//go:noescape
func axpyAVX(a float64, x, y []float64)

// axpyRowsAVX is axpyRowsGeneric with y held in YMM registers across every
// row of w: 16-column panels, then 8-, 4- and 1-column tails, each one pass
// over the rows in ascending order. Lengths are the caller's check.
//
//go:noescape
func axpyRowsAVX(y, x, w []float64, stride int)

// axpyNonzeroRowsAVX is axpyRowsAVX over the set bits of a row mask: per
// chunk of up to 64 rows, VCMPPD not-equal (x[k] != 0, true for NaN) and
// VMOVMSKPD build a 64-bit mask four rows at a time, and each panel of y —
// 24, 8, 4 or 1 columns — then visits the set bits lowest first (BSFQ, then
// the lowest bit cleared), so in ascending k. Lengths are the caller's
// check.
//
//go:noescape
func axpyNonzeroRowsAVX(y, x, w []float64, stride int)

// outerRowsAVX is outerRowsGeneric with y held in YMM registers across every
// row of G: 16-column panels, then 8-, 4- and 1-column tails, each one pass
// over the rows that multiplies the broadcast x[k] by the held y and adds
// the products into row k. Lengths are the caller's check.
//
//go:noescape
func outerRowsAVX(g, x, y []float64, stride int)

// outerNonzeroRowsAVX is outerRowsAVX over the set bits of the per-chunk
// row mask axpyNonzeroRowsAVX builds, in 24-, 8-, 4- and 1-column panels of
// y. Lengths are the caller's check.
//
//go:noescape
func outerNonzeroRowsAVX(g, x, y []float64, stride int)

// dotRowsAVX is dotRowsGeneric with four rows per YMM accumulator: each 4×4
// block of W is multiplied by four elements of x and transposed in
// registers, so lane i adds row i's terms in ascending order. Two such row
// groups are in flight at a time, then a 4-row group, then 1-row tails; a
// len(x) that is not a multiple of four finishes each group with
// column-gathered single terms. Lengths are the caller's check.
//
//go:noescape
func dotRowsAVX(y, x, w []float64, stride int)

// dotRows4AVX is dotRows4Generic with lane l holding vector l: per row of
// W one YMM accumulator, from +0, and per term one broadcast element of the
// row times the four-vector row of x, added in ascending order. Eight rows
// are in flight at a time, then a 4-row group, then single rows. Lengths
// are the caller's check.
//
//go:noescape
func dotRows4AVX(y, x, w []float64, stride int)

// reluAVX is reluGeneric as VMAXPD with +0 as the first source and y as the
// second, over 16- and 4-element steps, then VMAXSD per element. MAXPD
// returns the second source when both are zero or either is NaN, so −0 and
// NaN keep their bits and only a value below zero becomes +0.
//
//go:noescape
func reluAVX(y []float64)

// softmaxAVX is softmaxGeneric in three 4-wide passes: the row max (VMAXPD
// with the element as first source, so a NaN never wins), then Exp's
// operation sequence on four lanes at once with each lane's sum added in
// ascending order, then VDIVPD by the sum. A 1–3 element tail runs through
// the same vector code under a VMASKMOVPD lane mask, and the special cases
// are blended in per lane, so nothing falls back to scalar code. Lengths are
// the caller's check.
//
//go:noescape
func softmaxAVX(dst, src []float64)

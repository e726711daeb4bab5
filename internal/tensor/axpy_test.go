package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The vector kernels' contract is bit-identity: every form (the portable
// loops here, the AVX assembly in axpy_amd64_test.go) must produce exactly
// the bits of the one-element reference loops below. The property tests run
// every length 0–130 (all of the assembly's 16/8/4/1-wide steps and their
// combinations), unaligned slice starts, row strides n…n+3 and 0–30 rows
// (0–70 for the zero-skipping row kernels), over values chosen to
// expose any reordering or fusion: ±0, subnormals, and magnitudes near
// 1e±300 whose products overflow to ±Inf or underflow. ReLU's grid adds
// ±Inf and quiet and signalling NaNs of either sign, whose bits it must keep.

// scalarAxpy is the specification: one rounded multiply, then one rounded
// add, per element, in ascending order.
func scalarAxpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += float64(a * x[i])
	}
}

// scalarAxpyRows is AxpyRows' specification: one scalarAxpy per row of w.
func scalarAxpyRows(y, x, w []float64, stride int) {
	for k, xv := range x {
		scalarAxpy(xv, w[k*stride:k*stride+len(y)], y)
	}
}

// scalarAxpyNonzeroRows is AxpyNonzeroRows' specification: one scalarAxpy
// per row of w whose x[k] is not zero.
func scalarAxpyNonzeroRows(y, x, w []float64, stride int) {
	for k, xv := range x {
		if xv != 0 {
			scalarAxpy(xv, w[k*stride:k*stride+len(y)], y)
		}
	}
}

// scalarOuterRows is OuterRows' specification: one scalarAxpy of y into
// each row of g.
func scalarOuterRows(g, x, y []float64, stride int) {
	for k, xv := range x {
		scalarAxpy(xv, y, g[k*stride:k*stride+len(y)])
	}
}

// scalarOuterNonzeroRows is OuterNonzeroRows' specification: one scalarAxpy
// of y into each row of g whose x[k] is not zero.
func scalarOuterNonzeroRows(g, x, y []float64, stride int) {
	for k, xv := range x {
		if xv != 0 {
			scalarAxpy(xv, y, g[k*stride:k*stride+len(y)])
		}
	}
}

// scalarDotRows4 is DotRows4's specification: per row of w and per lane l,
// one accumulator from +0 over vector l's elements x[i·4+l], one rounded
// multiply and one rounded add per term in ascending i.
func scalarDotRows4(y, x, w []float64, stride int) {
	k := len(x) / 4
	for j := 0; j < len(y)/4; j++ {
		for l := 0; l < 4; l++ {
			var s float64
			for i := 0; i < k; i++ {
				s += float64(w[j*stride+i] * x[i*4+l])
			}
			y[j*4+l] = s
		}
	}
}

// fourDots is DotRows4 as one exported Dot per output: it de-interleaves
// the vectors and takes each one's dot product with every row of w.
func fourDots(y, x, w []float64, stride int) {
	k := len(x) / 4
	v := make([]float64, k)
	for l := 0; l < 4; l++ {
		for i := range v {
			v[i] = x[i*4+l]
		}
		for j := 0; j < len(y)/4; j++ {
			y[j*4+l] = Dot(w[j*stride:j*stride+k], v)
		}
	}
}

// scalarReLU is ReLU's specification: +0 where an element compares below
// zero, every other element's bits untouched.
func scalarReLU(y []float64) {
	for i := range y {
		if y[i] < 0 {
			y[i] = 0
		}
	}
}

// mixedFill fills v with a deterministic mix of ordinary values, ±0,
// subnormals and magnitudes near 1e300 and 1e-300.
func mixedFill(g *RNG, v []float64) {
	for i := range v {
		switch g.Intn(10) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		case 2:
			v[i] = float64(1+g.Intn(1<<20)) * math.SmallestNonzeroFloat64 * sign(g)
		case 3:
			v[i] = 1e300 * g.Norm()
		case 4:
			v[i] = 1e-300 * g.Norm()
		default:
			v[i] = g.Norm()
		}
	}
}

func sign(g *RNG) float64 {
	if g.Intn(2) == 0 {
		return -1
	}
	return 1
}

const (
	axpyMaxLen   = 130
	axpyMaxRows  = 30
	rowsMaxLen   = 70 // len(x) bound of the AxpyNonzeroRows grid
	rowsFullGrid = 20 // lengths up to which those grids cross every offset and stride
	axpyGuard    = 5  // elements beside y that no kernel may write
)

// x86NaN is the NaN every amd64 operation produces (Inf−Inf, 0·Inf) and
// propagates unchanged, so a grid seeded with it has one NaN bit pattern
// throughout and bit comparison stays meaningful: which payload survives
// when two NaNs meet is outside the kernels' contract.
var x86NaN = math.Float64frombits(0xfff8000000000000)

// reluSpecials are the values a ReLU must pass through or clamp exactly:
// both zeros, quiet and signalling NaNs of either sign with payloads, both
// infinities, subnormals of either sign, and ±1e300.
var reluSpecials = []float64{
	0, math.Copysign(0, -1),
	math.Float64frombits(0x7ff8000000000123), // quiet NaN
	math.Float64frombits(0xfff8000000000456), // quiet NaN, sign bit set
	math.Float64frombits(0x7ff0000000000789), // signalling NaN
	math.Float64frombits(0xfff0000000000abc), // signalling NaN, sign bit set
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1p-1030,
	1e300, -1e300,
}

// reluFill fills v with ordinary values of random sign and, at one element
// in three, one of reluSpecials.
func reluFill(g *RNG, v []float64) {
	for i := range v {
		if g.Intn(3) == 0 {
			v[i] = reluSpecials[g.Intn(len(reluSpecials))]
		} else {
			v[i] = g.Norm()
		}
	}
}

// sameBits fails the test unless got and want are bit-identical; the whole
// y backing array is compared, so a write outside y[:n] is caught too.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d of the y buffer is %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkAxpy runs got and want on identical copies of every Axpy case and
// compares the results bit for bit.
func checkAxpy(t *testing.T, got, want func(a float64, x, y []float64)) {
	t.Helper()
	g := NewRNG(17)
	xBuf := make([]float64, axpyMaxLen+3)
	yInit := make([]float64, axpyMaxLen+3+axpyGuard)
	yGot := make([]float64, len(yInit))
	yWant := make([]float64, len(yInit))
	for n := 0; n <= axpyMaxLen; n++ {
		mixedFill(g, xBuf)
		mixedFill(g, yInit)
		for offX := 0; offX < 4; offX++ {
			for offY := 0; offY < 4; offY++ {
				a := xBuf[(n+offX)%len(xBuf)]
				copy(yGot, yInit)
				copy(yWant, yInit)
				x := xBuf[offX : offX+n]
				got(a, x, yGot[offY:offY+n])
				want(a, x, yWant[offY:offY+n])
				sameBits(t, fmt.Sprintf("len %d, x offset %d, y offset %d", n, offX, offY), yGot, yWant)
			}
		}
	}
}

// checkAxpyRows is checkAxpy for the AxpyRows form: every len(y) 0–130, y/x
// offsets 0–3 (w offset one more, mod 4), strides len(y)…len(y)+3 and len(x)
// 0–30. w is cut to exactly the length the last row needs.
func checkAxpyRows(t *testing.T, got, want func(y, x, w []float64, stride int)) {
	t.Helper()
	g := NewRNG(29)
	xBuf := make([]float64, axpyMaxRows+3)
	wBuf := make([]float64, axpyMaxRows*(axpyMaxLen+3)+3)
	yInit := make([]float64, axpyMaxLen+3+axpyGuard)
	yGot := make([]float64, len(yInit))
	yWant := make([]float64, len(yInit))
	for n := 0; n <= axpyMaxLen; n++ {
		mixedFill(g, xBuf)
		mixedFill(g, wBuf)
		mixedFill(g, yInit)
		for off := 0; off < 4; off++ {
			offW := (off + 1) % 4
			for stride := n; stride <= n+3; stride++ {
				for k := 0; k <= axpyMaxRows; k++ {
					wLen := 0
					if k > 0 {
						wLen = (k-1)*stride + n
					}
					x := xBuf[off : off+k]
					w := wBuf[offW : offW+wLen]
					copy(yGot, yInit)
					copy(yWant, yInit)
					got(yGot[off:off+n], x, w, stride)
					want(yWant[off:off+n], x, w, stride)
					sameBits(t, fmt.Sprintf("len(y) %d, offset %d, stride %d, len(x) %d", n, off, stride, k), yGot, yWant)
				}
			}
		}
	}
}

// checkRows runs got and want on identical copies of every case of the row
// kernel grid and compares them bit for bit: every len(y) 0–130 × len(x)
// 0–70, y/x offsets 0–3 (w offset one more, mod 4) behind axpyGuard guard
// elements, and strides n…n+3, where n = len(y) is the row length. Lengths
// up to rowsFullGrid, which reach every
// panel, row group and tail of the assembly, run all 16 offset × stride
// combinations; above it each length pair runs one, cycling through all 16,
// which keeps the grid affordable under the race detector. w is cut to
// exactly the length the last row needs. Every x gets a NaN as well as the
// zeros mixedFill gives.
func checkRows(t *testing.T, got, want func(y, x, w []float64, stride int)) {
	t.Helper()
	g := NewRNG(31)
	xBuf := make([]float64, rowsMaxLen+3)
	wBuf := make([]float64, (axpyMaxLen+3)*(rowsMaxLen+3)+3)
	yInit := make([]float64, axpyGuard+axpyMaxLen+3+axpyGuard)
	yGot := make([]float64, len(yInit))
	yWant := make([]float64, len(yInit))
	mixedFill(g, wBuf)
	for ny := 0; ny <= axpyMaxLen; ny++ {
		mixedFill(g, yInit)
		for nx := 0; nx <= rowsMaxLen; nx++ {
			mixedFill(g, xBuf)
			xBuf[g.Intn(len(xBuf))] = x86NaN
			rows, n := nx, ny
			for c := 0; c < 16; c++ {
				if (ny > rowsFullGrid || nx > rowsFullGrid) && c != (ny*(rowsMaxLen+1)+nx)%16 {
					continue
				}
				off, stride := c/4, n+c%4
				offW := (off + 1) % 4
				wLen := 0
				if rows > 0 {
					wLen = (rows-1)*stride + n
				}
				x := xBuf[off : off+nx]
				w := wBuf[offW : offW+wLen]
				copy(yGot, yInit)
				copy(yWant, yInit)
				got(yGot[axpyGuard+off:axpyGuard+off+ny], x, w, stride)
				want(yWant[axpyGuard+off:axpyGuard+off+ny], x, w, stride)
				sameBits(t, fmt.Sprintf("len(y) %d, len(x) %d, offset %d, stride %d", ny, nx, off, stride), yGot, yWant)
			}
		}
	}
}

// outerLens are the row lengths of the rank-1 grid: every length through
// 72, then 127–130, so every 16-, 8-, 4- and 1-column step of the AVX
// assembly and their combinations run, and every AVX-512 panel — one to
// four, six or eight registers — with each masked width 1–8 of its last
// register, alone and after a full 64-column panel or two.
var outerLens = func() []int {
	var lens []int
	for n := 0; n <= 72; n++ {
		lens = append(lens, n)
	}
	return append(lens, 127, 128, 129, axpyMaxLen)
}()

// checkOuter runs got and want on identical copies of every case of the
// rank-1 grid and compares them bit for bit: every row length of outerLens
// × 0–70 rows (more than one 64-row compaction chunk), x/y offsets 0–3 (G's
// one more, mod 4) with axpyGuard guard elements on each side of G, and
// strides n…n+3, where n is the row length. Short shapes run all 16 offset
// × stride combinations and longer ones one each, cycling, as in
// checkRows. mixedFill puts ±0 into x — rows the nonzero form must skip —
// and -0 into G, where a skipped row must leave it; every x also gets one
// NaN, a row both forms must apply.
func checkOuter(t *testing.T, got, want func(g, x, y []float64, stride int)) {
	t.Helper()
	r := NewRNG(41)
	xBuf := make([]float64, rowsMaxLen+3)
	yBuf := make([]float64, axpyMaxLen+3)
	gInit := make([]float64, axpyGuard+(axpyMaxLen+3)*(rowsMaxLen+3)+3+axpyGuard)
	gGot := make([]float64, len(gInit))
	gWant := make([]float64, len(gInit))
	mixedFill(r, gInit)
	for _, n := range outerLens {
		mixedFill(r, yBuf)
		for rows := 0; rows <= rowsMaxLen; rows++ {
			mixedFill(r, xBuf)
			xBuf[r.Intn(len(xBuf))] = x86NaN
			for c := 0; c < 16; c++ {
				if (n > rowsFullGrid || rows > rowsFullGrid) && c != (n*(rowsMaxLen+1)+rows)%16 {
					continue
				}
				off, stride := c/4, n+c%4
				offG := axpyGuard + (off+1)%4
				gLen := 0
				if rows > 0 {
					gLen = (rows-1)*stride + n
				}
				used := offG + gLen + axpyGuard
				copy(gGot[:used], gInit)
				copy(gWant[:used], gInit)
				x, y := xBuf[off:off+rows], yBuf[off:off+n]
				got(gGot[offG:offG+gLen], x, y, stride)
				want(gWant[offG:offG+gLen], x, y, stride)
				sameBits(t, fmt.Sprintf("len(y) %d, len(x) %d, offset %d, stride %d", n, rows, off, stride), gGot[:used], gWant[:used])
			}
		}
	}
}

// dotSpecials are the values checkDotRows4 plants in its vector lanes: a
// NaN, both infinities and both zeros.
var dotSpecials = []float64{x86NaN, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}

// checkDotRows4 runs got and want on identical copies of every case of the
// four-vector dot grid and compares them bit for bit: 0–17 rows (two
// eight-row groups, a four-row group and every single-row tail), 0–70
// terms, y/x offsets 0–3 (w offset one more, mod 4) behind axpyGuard guard
// elements, and strides k…k+3. Up to rowsFullGrid terms every offset ×
// stride combination runs, above it one each, cycling, as in checkRows.
// Every x gets a few of dotSpecials, in random lanes, besides the ±0,
// subnormals and near-overflow magnitudes of mixedFill.
func checkDotRows4(t *testing.T, got, want func(y, x, w []float64, stride int)) {
	t.Helper()
	const maxRows = 17
	g := NewRNG(43)
	xBuf := make([]float64, 4*rowsMaxLen+3)
	wBuf := make([]float64, maxRows*(rowsMaxLen+3)+3)
	yInit := make([]float64, axpyGuard+4*maxRows+3+axpyGuard)
	yGot := make([]float64, len(yInit))
	yWant := make([]float64, len(yInit))
	mixedFill(g, wBuf)
	for rows := 0; rows <= maxRows; rows++ {
		mixedFill(g, yInit)
		for k := 0; k <= rowsMaxLen; k++ {
			mixedFill(g, xBuf)
			for range 3 {
				xBuf[g.Intn(len(xBuf))] = dotSpecials[g.Intn(len(dotSpecials))]
			}
			for c := 0; c < 16; c++ {
				if k > rowsFullGrid && c != (rows*(rowsMaxLen+1)+k)%16 {
					continue
				}
				off, stride := c/4, k+c%4
				offW := (off + 1) % 4
				wLen := 0
				if rows > 0 {
					wLen = (rows-1)*stride + k
				}
				x := xBuf[off : off+4*k]
				w := wBuf[offW : offW+wLen]
				copy(yGot, yInit)
				copy(yWant, yInit)
				got(yGot[axpyGuard+off:axpyGuard+off+4*rows], x, w, stride)
				want(yWant[axpyGuard+off:axpyGuard+off+4*rows], x, w, stride)
				sameBits(t, fmt.Sprintf("rows %d, terms %d, offset %d, stride %d", rows, k, off, stride), yGot, yWant)
			}
		}
	}
}

// nonzeroChunkRows are row counts on either side of the zero-skipping
// kernels' 64-row mask chunks: one short of a chunk, exactly one, one over,
// and two chunks and a row.
var nonzeroChunkRows = []int{63, 64, 65, 129}

// checkNonzeroChunks runs got and want — both AxpyNonzeroRows-shaped, or
// with outer both OuterNonzeroRows-shaped — on identical copies of every
// chunk-edge case and compares the whole output buffers bit for bit: every
// row count of nonzeroChunkRows × output widths on and around each panel
// of either tier (1–9, 15–17, 23–25, 31–33, 47–49, 57, 63–65), with x all
// ±0, all nonzero, holding NaNs at and beside the chunk edges among zeros,
// and holding −0 among nonzero values. mixedFill's −0s in the output are what a wrongly applied zero row
// would flip.
func checkNonzeroChunks(t *testing.T, outer bool, got, want func(a, x, b []float64, stride int)) {
	t.Helper()
	g := NewRNG(47)
	negZero := math.Copysign(0, -1)
	patterns := []struct {
		name string
		fill func(x []float64)
	}{
		{"zero", func(x []float64) {
			for k := range x {
				x[k] = 0
				if k%3 == 1 {
					x[k] = negZero
				}
			}
		}},
		{"nonzero", func(x []float64) {
			for k := range x {
				x[k] = 0.5 + g.Float64()
			}
		}},
		{"nan", func(x []float64) {
			for k := range x {
				x[k] = 0
				if g.Intn(3) == 0 {
					x[k] = g.Norm()
				}
			}
			for _, k := range []int{0, 62, 63, 64, 127, 128, len(x) - 1} {
				if k < len(x) {
					x[k] = x86NaN
				}
			}
		}},
		{"negzero", func(x []float64) {
			for k := range x {
				x[k] = g.Norm()
				if g.Intn(2) == 0 {
					x[k] = negZero
				}
			}
		}},
	}
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 47, 48, 49, 57, 63, 64, 65}
	for _, rows := range nonzeroChunkRows {
		x := make([]float64, rows)
		for _, n := range widths {
			for _, p := range patterns {
				p.fill(x)
				stride := n + rows%3
				mat := make([]float64, (rows-1)*stride+n)
				vec := make([]float64, n)
				mixedFill(g, mat)
				mixedFill(g, vec)
				init := vec
				if outer {
					init = mat
				}
				gotOut := append([]float64(nil), init...)
				wantOut := append([]float64(nil), init...)
				what := fmt.Sprintf("rows %d, width %d, x %s", rows, n, p.name)
				if outer {
					got(gotOut, x, vec, stride)
					want(wantOut, x, vec, stride)
				} else {
					got(gotOut, x, mat, stride)
					want(wantOut, x, mat, stride)
				}
				sameBits(t, what, gotOut, wantOut)
			}
		}
	}
}

// checkReLU runs got and want on identical copies of every ReLU case —
// lengths 0–130 at offsets 0–3, axpyGuard guard elements on each side — and
// compares the whole buffers bit for bit.
func checkReLU(t *testing.T, got, want func(y []float64)) {
	t.Helper()
	g := NewRNG(37)
	yInit := make([]float64, axpyGuard+axpyMaxLen+3+axpyGuard)
	yGot := make([]float64, len(yInit))
	yWant := make([]float64, len(yInit))
	for n := 0; n <= axpyMaxLen; n++ {
		for off := 0; off < 4; off++ {
			reluFill(g, yInit)
			copy(yGot, yInit)
			copy(yWant, yInit)
			got(yGot[axpyGuard+off : axpyGuard+off+n])
			want(yWant[axpyGuard+off : axpyGuard+off+n])
			sameBits(t, fmt.Sprintf("len %d, offset %d", n, off), yGot, yWant)
		}
	}
}

// TestAxpyPortableBitIdentity pins the portable forms — what runs off amd64
// and under -tags purego, and the oracle for the assembly — to the
// one-element reference: the 4-way unroll and the row loop change no bits.
func TestAxpyPortableBitIdentity(t *testing.T) {
	checkAxpy(t, axpyGeneric, scalarAxpy)
	checkAxpyRows(t, axpyRowsGeneric, scalarAxpyRows)
}

// TestDotRows4PortableBitIdentity pins the portable DotRows4 to its
// one-accumulator-per-output specification, and the exported DotRows4 —
// the assembly where it runs — to one exported Dot per output.
func TestDotRows4PortableBitIdentity(t *testing.T) {
	checkDotRows4(t, dotRows4Generic, scalarDotRows4)
	checkDotRows4(t, DotRows4, fourDots)
}

// TestNonzeroRowsChunkEdges pins the exported zero-skipping kernels — the
// bit-mask assembly where it runs — to their one-Axpy-per-nonzero-row
// specifications across the 64-row chunk edges of the mask.
func TestNonzeroRowsChunkEdges(t *testing.T) {
	checkNonzeroChunks(t, false, AxpyNonzeroRows, scalarAxpyNonzeroRows)
	checkNonzeroChunks(t, true, OuterNonzeroRows, scalarOuterNonzeroRows)
}

// TestAxpyNonzeroRowsPortableBitIdentity pins the portable AxpyNonzeroRows
// to the one-Axpy-per-nonzero-row reference, NaN rows included.
func TestAxpyNonzeroRowsPortableBitIdentity(t *testing.T) {
	checkRows(t, axpyNonzeroRowsGeneric, scalarAxpyNonzeroRows)
}

// TestOuterRowsPortableBitIdentity pins the portable rank-1 kernels — one
// Axpy per row, and per nonzero row — to their references.
func TestOuterRowsPortableBitIdentity(t *testing.T) {
	checkOuter(t, outerRowsGeneric, scalarOuterRows)
	checkOuter(t, outerNonzeroRowsGeneric, scalarOuterNonzeroRows)
}

// TestReLUPortableBitIdentity pins the portable ReLU to its specification.
func TestReLUPortableBitIdentity(t *testing.T) {
	checkReLU(t, reluGeneric, scalarReLU)
}

// TestReLUContract checks, through the exported kernel (so through the
// assembly where it runs), the bits every special value must come out as:
// the negatives become +0, and −0, +Inf, positive values and every NaN keep
// their bits.
func TestReLUContract(t *testing.T) {
	for _, n := range []int{1, 3, 4, 7, 16, 21} {
		for _, v := range reluSpecials {
			y := make([]float64, n)
			for i := range y {
				y[i] = v
			}
			ReLU(y)
			want := math.Float64bits(v)
			if v < 0 {
				want = 0
			}
			for i, got := range y {
				if math.Float64bits(got) != want {
					t.Fatalf("n=%d: ReLU(%#x) at %d = %#x, want %#x", n, math.Float64bits(v), i, math.Float64bits(got), want)
				}
			}
		}
	}
}

// TestAxpyNonzeroRowsSkipContract checks the two cases the skip exists for,
// through the exported kernel (so through the assembly where it runs): rows
// with x[k] == ±0 leave a -0 in y untouched, and a NaN x[k] is not skipped.
func TestAxpyNonzeroRowsSkipContract(t *testing.T) {
	for _, n := range []int{1, 3, 4, 8, 16, 24, 29} {
		y := make([]float64, n)
		w := make([]float64, 3*n)
		for i := range y {
			y[i] = math.Copysign(0, -1)
		}
		for i := range w {
			w[i] = float64(i%5) - 2 // ±, and exact zeros too
		}
		AxpyNonzeroRows(y, []float64{0, math.Copysign(0, -1), 0}, w, n)
		for i, v := range y {
			if math.Float64bits(v) != 1<<63 {
				t.Fatalf("n=%d: y[%d] = %v after zero rows, want -0", n, i, v)
			}
		}
		AxpyNonzeroRows(y, []float64{0, math.NaN(), 0}, w, n)
		for i, v := range y {
			if !math.IsNaN(v) {
				t.Fatalf("n=%d: y[%d] = %v after a NaN row, want NaN", n, i, v)
			}
		}
	}
}

// TestOuterNonzeroRowsSkipContract is TestAxpyNonzeroRowsSkipContract for
// the rank-1 form: ±0 rows leave a -0 in G untouched and a NaN row is
// applied, through the exported kernel, over more rows than one compaction
// chunk holds; OuterRows applies every row, the zero ones included.
func TestOuterNonzeroRowsSkipContract(t *testing.T) {
	const rows = 70
	for _, n := range []int{1, 3, 4, 8, 13, 16, 24, 29, 48} {
		y := make([]float64, n)
		for i := range y {
			y[i] = float64(i%5) - 2 // ±, and exact zeros too
		}
		x := make([]float64, rows)
		for k := range x {
			if k%2 == 1 {
				x[k] = math.Copysign(0, -1)
			}
		}
		x[66] = math.NaN()
		negZero := math.Copysign(0, -1)
		g := make([]float64, rows*n)
		for i := range g {
			g[i] = negZero
		}
		OuterNonzeroRows(g, x, y, n)
		for i, v := range g {
			if k := i / n; k == 66 {
				if !math.IsNaN(v) {
					t.Fatalf("n=%d: g[%d] = %v after the NaN row, want NaN", n, i, v)
				}
			} else if math.Float64bits(v) != 1<<63 {
				t.Fatalf("n=%d: g[%d] = %v after a zero row, want -0", n, i, v)
			}
		}
		for i := range g {
			g[i] = negZero
		}
		x[66] = 0
		OuterRows(g, x, y, n)
		for i, v := range g {
			// An even row is +0·y: where y > 0 its +0 term turns -0 into +0.
			if k, j := i/n, i%n; k%2 == 0 && y[j] > 0 && math.Float64bits(v) != 0 {
				t.Fatalf("n=%d: OuterRows left g[%d] = %v; the +0 row %d was skipped", n, i, v, k)
			}
		}
	}
}

func TestAxpyKernelsPanic(t *testing.T) {
	cases := []struct {
		name string
		run  func()
	}{
		{"Axpy length mismatch", func() { Axpy(1, make([]float64, 3), make([]float64, 4)) }},
		{"AxpyRows stride shorter than y", func() { AxpyRows(make([]float64, 4), make([]float64, 2), make([]float64, 8), 3) }},
		{"AxpyRows negative stride", func() { AxpyRows(nil, make([]float64, 2), make([]float64, 8), -1) }},
		{"AxpyRows short w", func() { AxpyRows(make([]float64, 4), make([]float64, 3), make([]float64, 2*5+3), 5) }},
		{"AxpyNonzeroRows stride shorter than y", func() { AxpyNonzeroRows(make([]float64, 4), make([]float64, 2), make([]float64, 8), 3) }},
		{"AxpyNonzeroRows short w", func() { AxpyNonzeroRows(make([]float64, 4), make([]float64, 3), make([]float64, 2*5+3), 5) }},
		{"OuterRows stride shorter than y", func() { OuterRows(make([]float64, 8), make([]float64, 2), make([]float64, 4), 3) }},
		{"OuterRows short g", func() { OuterRows(make([]float64, 2*5+3), make([]float64, 3), make([]float64, 4), 5) }},
		{"OuterNonzeroRows stride shorter than y", func() { OuterNonzeroRows(make([]float64, 8), make([]float64, 2), make([]float64, 4), 3) }},
		{"OuterNonzeroRows short g", func() { OuterNonzeroRows(make([]float64, 2*5+3), make([]float64, 3), make([]float64, 4), 5) }},
		{"DotRows4 x not by four", func() { DotRows4(make([]float64, 4), make([]float64, 6), make([]float64, 8), 2) }},
		{"DotRows4 y not by four", func() { DotRows4(make([]float64, 6), make([]float64, 8), make([]float64, 8), 2) }},
		{"DotRows4 stride shorter than a row", func() { DotRows4(make([]float64, 8), make([]float64, 12), make([]float64, 8), 2) }},
		{"DotRows4 short w", func() { DotRows4(make([]float64, 12), make([]float64, 16), make([]float64, 2*5+3), 5) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.run()
		}()
	}
	// Boundary cases that must not panic: no rows, empty rows, and a w cut
	// exactly at the end of the last row.
	AxpyRows(make([]float64, 4), nil, nil, 4)
	AxpyRows(nil, make([]float64, 3), nil, 0)
	AxpyRows(make([]float64, 4), make([]float64, 3), make([]float64, 2*5+4), 5)
	AxpyNonzeroRows(make([]float64, 4), make([]float64, 3), make([]float64, 2*5+4), 5)
	OuterRows(make([]float64, 2*5+4), make([]float64, 3), make([]float64, 4), 5)
	OuterNonzeroRows(make([]float64, 2*5+4), make([]float64, 3), make([]float64, 4), 5)
	OuterRows(nil, nil, make([]float64, 4), 4)
	DotRows4(nil, make([]float64, 16), nil, 4)
	DotRows4(make([]float64, 12), nil, nil, 0)
	DotRows4(make([]float64, 12), make([]float64, 16), make([]float64, 2*5+4), 5)
}

func TestAxpyKernelsZeroAllocs(t *testing.T) {
	x := make([]float64, 24)
	y := make([]float64, 48)
	w := make([]float64, 24*48)
	x4 := make([]float64, 4*48)
	y4 := make([]float64, 4*24)
	y5 := make([]float64, 5*48)
	allocs := testing.AllocsPerRun(100, func() {
		Axpy(0.5, y[:24], x)
		AxpyRows(y, x, w, 48)
		AxpyNonzeroRows(y, x, w, 48)
		MulRows(y5, 48, x4, 24, w, 48, y, 5, 24, 48)
		DotRows4(y4, x4, w, 48)
		OuterRows(w, x, y, 48)
		OuterNonzeroRows(w, x, y, 48)
		ReLU(y)
		Softmax(y[:len(x)], x)
	})
	if allocs != 0 {
		t.Fatalf("Axpy + AxpyRows + AxpyNonzeroRows + MulRows + DotRows4 + OuterRows + OuterNonzeroRows + ReLU + Softmax: %v allocs/op, want 0", allocs)
	}

	// MatMulInto on a warm scratch, through both the single-block path and
	// the packed blocked path (b larger than one tile).
	var ms MulScratch
	g := NewRNG(5)
	for _, sh := range [][3]int{{4, 24, 48}, {4, 2 * matmulTileK, matmulTileJ + 16}} {
		a, b := NewMatrix(sh[0], sh[1]), NewMatrix(sh[1], sh[2])
		a.RandInit(g, 1)
		b.RandInit(g, 1)
		out := NewMatrix(sh[0], sh[2])
		ms.MatMulInto(out, a, b)
		if n := testing.AllocsPerRun(100, func() { ms.MatMulInto(out, a, b) }); n != 0 {
			t.Fatalf("warm MatMulInto %dx%d × %dx%d: %v allocs/op, want 0", sh[0], sh[1], sh[1], sh[2], n)
		}
		// The same b as the transpose of a TransB operand, and a as a
		// TransA one.
		bt, outT := NewMatrix(sh[2], sh[1]), NewMatrix(sh[1], sh[2])
		ms.MatMulTransBInto(out, a, bt)
		if n := testing.AllocsPerRun(100, func() {
			ms.MatMulTransBInto(out, a, bt)
			MatMulTransAInto(outT, a, out)
		}); n != 0 {
			t.Fatalf("warm MatMulTransBInto and MatMulTransAInto at %v: %v allocs/op, want 0", sh, n)
		}
	}

	// The attention and routing block kernels at model shapes: 22 rows,
	// the four-row tier's whole groups and two rows left over.
	a, b := NewMatrix(22, 24), NewMatrix(24, 24)
	a.RandInit(g, 1)
	b.RandInit(g, 1)
	kT, scores := NewMatrix(24, 22), NewMatrix(22, 22)
	ms.MatMulIntoCols(kT, 0, a, b)
	if n := testing.AllocsPerRun(100, func() {
		ms.MatMulIntoCols(kT, 0, a, b)
		SoftmaxRows(scores, 0)
	}); n != 0 {
		t.Fatalf("warm MatMulIntoCols and SoftmaxRows: %v allocs/op, want 0", n)
	}
}

// BenchmarkAxpy runs Axpy at the model's two row lengths (dim 24, ffn 48).
func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{24, 48} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := NewRNG(3)
			x := make([]float64, n)
			y := make([]float64, n)
			for i := range x {
				x[i] = g.Norm() // no subnormals: they take a microcode assist
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Axpy(1e-3, x, y)
			}
		})
	}
}

// modelShapes are the rows×cols the model runs the Axpy-form and rank-1
// kernels at: the LLaMA stand-in's expert, 24×48 (W1, dim → ffn) and 48×24
// (W2); the Q/K/V projections, 24×24; the gates, 24×8 and 24×16; and the
// DeepSeek stand-in's expert, 24×64 and 64×24.
var modelShapes = []struct{ rows, cols int }{{24, 48}, {48, 24}, {24, 24}, {24, 8}, {24, 16}, {24, 64}, {64, 24}}

// BenchmarkAxpyRows runs AxpyRows at modelShapes.
func BenchmarkAxpyRows(b *testing.B) {
	for _, sh := range modelShapes {
		b.Run(fmt.Sprintf("shape=%dx%d", sh.rows, sh.cols), func(b *testing.B) {
			g := NewRNG(4)
			x := make([]float64, sh.rows)
			w := make([]float64, sh.rows*sh.cols)
			y := make([]float64, sh.cols)
			for i := range x {
				x[i] = g.Norm()
			}
			for i := range w {
				w[i] = g.Norm()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AxpyRows(y, x, w, sh.cols)
			}
		})
	}
}

// BenchmarkDotRows4 runs DotRows4 at the expert backward's shapes on both
// stand-ins: rows×terms = 48×24 and 64×24 (dh = W2·dy) and 24×48 and 24×64
// (dx = W1·dh).
func BenchmarkDotRows4(b *testing.B) {
	for _, sh := range []struct{ rows, cols int }{{48, 24}, {24, 48}, {64, 24}, {24, 64}} {
		g := NewRNG(10)
		x := make([]float64, 4*sh.cols)
		w := make([]float64, sh.rows*sh.cols)
		y := make([]float64, 4*sh.rows)
		for i := range x {
			x[i] = g.Norm()
		}
		for i := range w {
			w[i] = g.Norm()
		}
		b.Run(fmt.Sprintf("shape=%dx%d", sh.rows, sh.cols), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				DotRows4(y, x, w, sh.cols)
			}
		})
	}
}

// BenchmarkReLU runs ReLU at the expert FFN widths (48 on the LLaMA
// stand-in, 64 on the DeepSeek one) over pre-activations of random sign,
// the pattern a compare-and-branch loop mispredicts. Each iteration restores
// its input from one of 64 random rows — a clamped row has no negatives
// left, and one repeated row would let the branch predictor learn it.
func BenchmarkReLU(b *testing.B) {
	const rows = 64
	for _, n := range []int{48, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := NewRNG(7)
			src := make([]float64, rows*n)
			y := make([]float64, n)
			for i := range src {
				src[i] = g.Norm() // no subnormals: they take a microcode assist
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i % rows) * n
				copy(y, src[off:off+n])
				ReLU(y)
			}
		})
	}
}

// BenchmarkAxpyNonzeroRows runs AxpyNonzeroRows at modelShapes with about
// half of x zero, in a random pattern, as the expert FFN's W2 sweep meets
// its ReLU units (48×24 and 64×24 are that sweep).
func BenchmarkAxpyNonzeroRows(b *testing.B) {
	for _, sh := range modelShapes {
		b.Run(fmt.Sprintf("shape=%dx%d", sh.rows, sh.cols), func(b *testing.B) {
			g := NewRNG(6)
			x := make([]float64, sh.rows)
			w := make([]float64, sh.rows*sh.cols)
			y := make([]float64, sh.cols)
			for i := range x {
				x[i] = max(g.Norm(), 0)
			}
			for i := range w {
				w[i] = g.Norm()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AxpyNonzeroRows(y, x, w, sh.cols)
			}
		})
	}
}

// BenchmarkOuterRows runs OuterRows at modelShapes; the expert weight
// gradients are 24×48 and 24×64 (dW1 += xᵀ·dh) and 48×24 and 64×24 (dW2 +=
// hiddenᵀ·dy).
func BenchmarkOuterRows(b *testing.B) {
	for _, sh := range modelShapes {
		b.Run(fmt.Sprintf("shape=%dx%d", sh.rows, sh.cols), func(b *testing.B) {
			g := NewRNG(8)
			x := make([]float64, sh.rows)
			y := make([]float64, sh.cols)
			w := make([]float64, sh.rows*sh.cols)
			for i := range x {
				x[i] = 1e-3 * g.Norm() // small: the gradient stays far from overflow
			}
			for i := range y {
				y[i] = g.Norm()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				OuterRows(w, x, y, sh.cols)
			}
		})
	}
}

// BenchmarkOuterNonzeroRows runs OuterNonzeroRows at the same shapes with
// about half of x zero, in a random pattern, as a ReLU output leaves it.
func BenchmarkOuterNonzeroRows(b *testing.B) {
	for _, sh := range modelShapes {
		b.Run(fmt.Sprintf("shape=%dx%d", sh.rows, sh.cols), func(b *testing.B) {
			g := NewRNG(9)
			x := make([]float64, sh.rows)
			y := make([]float64, sh.cols)
			w := make([]float64, sh.rows*sh.cols)
			for i := range x {
				x[i] = 1e-3 * max(g.Norm(), 0)
			}
			for i := range y {
				y[i] = g.Norm()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				OuterNonzeroRows(w, x, y, sh.cols)
			}
		})
	}
}

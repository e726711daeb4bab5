package tensor

import (
	"fmt"
	"testing"
)

// naiveMatMulInto is the reference kernel the tiled MatMulInto must match bit
// for bit: a plain ikj loop accumulating each output element in ascending-k
// order from zero, each product rounded before it is added.
func naiveMatMulInto(out, a, b *Matrix) {
	out.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			brow := b.Row(k)
			for j := range brow {
				orow[j] += float64(av * brow[j])
			}
		}
	}
}

// TestMatMulTiledBitIdentity pins the tiled kernel bit-identical to the naive
// reference across shapes that exercise every path: trivially small, exactly
// one tile, one past a tile boundary, and tall/wide blocked cases (b larger
// than a single kTile×jTile block). The k-accumulation-order contract means
// equality must be exact, not within tolerance.
func TestMatMulTiledBitIdentity(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{3, 5, 2},
		{7, matmulTileK, matmulTileJ},            // largest single-block fast-path shape
		{7, matmulTileK + 1, matmulTileJ},        // one k past the boundary: blocked path
		{7, matmulTileK, matmulTileJ + 1},        // one j past the boundary: blocked path
		{5, matmulTileK + 37, 2*matmulTileJ + 3}, // multiple ragged blocks
		{200, 3, 1},                              // tall and narrow
		{1, 300, 150},                            // wide reduction, blocked path
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(t *testing.T) {
			g := NewRNG(int64(sh.m*1000003 + sh.k*1009 + sh.n))
			a := NewMatrix(sh.m, sh.k)
			b := NewMatrix(sh.k, sh.n)
			a.RandInit(g, 1)
			b.RandInit(g, 1)
			// Sprinkle exact zeros so the dense no-skip path sees them.
			for i := 0; i < len(a.Data); i += 7 {
				a.Data[i] = 0
			}
			want := NewMatrix(sh.m, sh.n)
			naiveMatMulInto(want, a, b)
			got := NewMatrix(sh.m, sh.n)
			var ms MulScratch
			ms.MatMulInto(got, a, b)
			for i, w := range want.Data {
				if got.Data[i] != w {
					t.Fatalf("element %d: tiled %v != naive %v", i, got.Data[i], w)
				}
			}
			// A warm scratch must not change results.
			ms.MatMulInto(got, a, b)
			for i, w := range want.Data {
				if got.Data[i] != w {
					t.Fatalf("warm rerun, element %d: tiled %v != naive %v", i, got.Data[i], w)
				}
			}
		})
	}
}

// checkMatMulRows holds MatMulInto and MatMulIntoCols to one portable
// AxpyRows per row from +0, bit for bit, at every output width 0–50 (each
// masked width of the four-row tier's one, two and three registers in a
// first, second and third panel of 24 columns) and 71–72, 0–13 rows (whole groups of four and one to three left
// over) and reductions of 1, 2, 5 and 24 terms, over values with zeros,
// subnormals and magnitudes whose products overflow. MatMulIntoCols writes
// into a stale matrix two columns wider on each side, whose other columns
// must keep their bits.
func checkMatMulRows(t *testing.T) {
	t.Helper()
	g := NewRNG(61)
	var ms MulScratch
	for _, n := range append(seq(0, 50), 71, 72) {
		for rows := 0; rows <= 13; rows++ {
			for _, k := range []int{1, 2, 5, 24} {
				a, b := NewMatrix(rows, k), NewMatrix(k, n)
				mixedFill(g, a.Data)
				mixedFill(g, b.Data)
				want := NewMatrix(rows, n)
				for i := 0; i < rows; i++ {
					axpyRowsGeneric(want.Row(i), a.Row(i), b.Data, n)
				}
				what := fmt.Sprintf("%dx%dx%d", rows, k, n)
				got := stale(rows, n)
				ms.MatMulInto(got, a, b)
				sameBits(t, what, got.Data, want.Data)

				gotT, wantT := stale(n, rows+4), stale(n, rows+4)
				copy(wantT.Data, gotT.Data)
				for i := 0; i < rows; i++ {
					for j := 0; j < n; j++ {
						wantT.Set(j, 2+i, want.At(i, j))
					}
				}
				ms.MatMulIntoCols(gotT, 2, a, b)
				sameBits(t, what+", transposed", gotT.Data, wantT.Data)
			}
		}
	}
}

// TestMatMulRowsBitIdentity runs checkMatMulRows through whichever tier
// this host and build run.
func TestMatMulRowsBitIdentity(t *testing.T) {
	checkMatMulRows(t)
}

// seq returns the integers [from, to].
func seq(from, to int) []int {
	s := make([]int, 0, to-from+1)
	for i := from; i <= to; i++ {
		s = append(s, i)
	}
	return s
}

// mulRowsFunc is MulRows's four-row kernel signature: trans stores the
// output transposed, output (i, j) at y[j·ystride+i].
type mulRowsFunc func(y, x, w, bias []float64, rows, k, n, xstride, wstride, ystride int, trans bool)

// mulRowsOracle is one portable AxpyRows per row, from the bias or from +0.
func mulRowsOracle(y, x, w, bias []float64, rows, k, n, xstride, wstride, ystride int, trans bool) {
	row := make([]float64, n)
	for i := 0; i < rows; i++ {
		clear(row)
		if bias != nil {
			copy(row, bias)
		}
		axpyRowsGeneric(row, x[i*xstride:i*xstride+k], w, wstride)
		for j, v := range row {
			if trans {
				y[j*ystride+i] = v
			} else {
				y[i*ystride+j] = v
			}
		}
	}
}

// checkMulRows holds got to mulRowsOracle bit for bit at every output width
// 1–72 — each masked width of one, two and three registers in a first,
// second and third panel of 24 columns — over the given row counts,
// reductions of 1, 3 and 24 terms, each operand at its row length and at a
// longer stride, from the bias and from +0, row-major and, where transposed
// is set, transposed; values have zeros, subnormals and magnitudes whose
// products overflow. y starts stale, and the elements between its rows
// must keep their bits.
func checkMulRows(t *testing.T, rowCounts []int, transposed bool, got mulRowsFunc) {
	t.Helper()
	g := NewRNG(71)
	stores := []bool{false}
	if transposed {
		stores = append(stores, true)
	}
	for n := 1; n <= 72; n++ {
		for _, rows := range rowCounts {
			for _, k := range []int{1, 3, 24} {
				for _, pad := range []int{0, 3} {
					for _, withBias := range []bool{false, true} {
						for _, trans := range stores {
							xs, wst, ys := k+pad, n+2*pad, n+pad
							if trans {
								ys = rows + pad
							}
							x, w := make([]float64, rows*xs), make([]float64, k*wst)
							mixedFill(g, x)
							mixedFill(g, w)
							var bias []float64
							if withBias {
								bias = make([]float64, n)
								mixedFill(g, bias)
							}
							size := rows * ys
							if trans {
								size = n * ys
							}
							y, want := stale(1, size).Data, stale(1, size).Data
							mulRowsOracle(want, x, w, bias, rows, k, n, xs, wst, ys, trans)
							got(y, x, w, bias, rows, k, n, xs, wst, ys, trans)
							sameBits(t, fmt.Sprintf("%d rows, k %d, width %d, strides %d/%d/%d, bias %v, transposed %v",
								rows, k, n, xs, wst, ys, withBias, trans), y, want)
						}
					}
				}
			}
		}
	}
}

// TestMulRowsBitIdentity runs checkMulRows through MulRows, on whichever
// tier this host and build run: whole groups of four and one to three rows
// left over.
func TestMulRowsBitIdentity(t *testing.T) {
	checkMulRows(t, []int{1, 3, 4, 5, 8, 11}, false,
		func(y, x, w, bias []float64, rows, k, n, xstride, wstride, ystride int, _ bool) {
			MulRows(y, ystride, x, xstride, w, wstride, bias, rows, k, n)
		})
}

// TestMatMulTransIntoMatchesAlloc pins the full-overwrite contract of the
// TransA/TransB/Transpose Into kernels: run over stale output contents they
// give exactly what they give over a fresh zeroed output, and a mis-shaped
// output panics.
func TestMatMulTransIntoMatchesAlloc(t *testing.T) {
	g := NewRNG(9)
	a := NewMatrix(6, 4)
	b := NewMatrix(5, 4)
	c := NewMatrix(5, 3)
	a.RandInit(g, 1)
	b.RandInit(g, 1)
	c.RandInit(g, 1)
	kernels := []struct {
		name       string
		rows, cols int
		run        func(out *Matrix)
	}{
		{"MatMulTransBInto", 6, 5, func(out *Matrix) { new(MulScratch).MatMulTransBInto(out, a, b) }},
		{"MatMulTransAInto", 4, 3, func(out *Matrix) { MatMulTransAInto(out, b, c) }},
		{"transposeInto", 4, 6, func(out *Matrix) { transposeInto(out, a) }},
	}
	for _, k := range kernels {
		fresh := NewMatrix(k.rows, k.cols)
		k.run(fresh)
		reused := stale(k.rows, k.cols)
		k.run(reused)
		if !reused.Equal(fresh, 0) {
			t.Fatalf("%s over stale output != over fresh output", k.name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted a mis-shaped output", k.name)
				}
			}()
			k.run(NewMatrix(k.rows+1, k.cols))
		}()
	}
}

// TestTopKIntoReuse pins TopKInto's buffer reuse against fresh calls on nil
// buffers.
func TestTopKIntoReuse(t *testing.T) {
	g := NewRNG(11)
	var idx []int
	var used []bool
	for iter := 0; iter < 50; iter++ {
		n := 1 + iter%9
		v := make([]float64, n)
		for i := range v {
			v[i] = g.Gauss(0, 1)
		}
		k := iter % (n + 2)
		want, _ := TopKInto(nil, nil, v, k)
		idx, used = TopKInto(idx, used, v, k)
		if len(idx) != len(want) {
			t.Fatalf("iter %d: len %d != %d", iter, len(idx), len(want))
		}
		for i, w := range want {
			if idx[i] != w {
				t.Fatalf("iter %d: idx[%d]=%d want %d", iter, i, idx[i], w)
			}
		}
	}
}

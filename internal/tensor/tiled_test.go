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

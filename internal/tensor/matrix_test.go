package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// mul is a×b through a fresh MulScratch into a fresh output.
func mul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	new(MulScratch).MatMulInto(out, a, b)
	return out
}

// transposeInto writes mᵀ into a preallocated out, overwriting every
// element: the explicit transpose the TransA/TransB kernel tests check
// against.
func transposeInto(out, m *Matrix) {
	if out.Rows != m.Cols || out.Cols != m.Rows {
		panic("tensor: transpose output shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
}

// transposed is mᵀ in a fresh matrix: the explicit-transpose oracle of the
// TransA/TransB kernel tests.
func transposed(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	transposeInto(out, m)
	return out
}

// stale returns a rows×cols matrix of garbage that an Into kernel must fully
// overwrite.
func stale(rows, cols int) *Matrix {
	out := NewMatrix(rows, cols)
	for i := range out.Data {
		out.Data[i] = 123
	}
	return out
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := mul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !c.Equal(want, 1e-12) {
		t.Fatalf("matmul got %v want %v", c.Data, want.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	g := NewRNG(1)
	a := NewMatrix(4, 4)
	a.RandInit(g, 1)
	id := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	if got := mul(a, id); !got.Equal(a, 1e-12) {
		t.Fatal("A×I != A")
	}
	if got := mul(id, a); !got.Equal(a, 1e-12) {
		t.Fatal("I×A != A")
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	mul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestTransposeInvolution(t *testing.T) {
	g := NewRNG(2)
	a := NewMatrix(3, 5)
	a.RandInit(g, 1)
	if !transposed(transposed(a)).Equal(a, 0) {
		t.Fatal("(Aᵀ)ᵀ != A")
	}
}

// matMulTransAPerElement is MatMulTransAInto as it was written before it
// made one OuterNonzeroRows call per row of a: one Axpy per nonzero
// element of a, rows of a in ascending order. It is the bit-level oracle of
// TestMatMulTransABitIdentity.
func matMulTransAPerElement(out, a, b *Matrix) {
	out.Zero()
	for k := 0; k < a.Rows; k++ {
		brow := b.Row(k)
		for i, av := range a.Row(k) {
			if av == 0 {
				continue
			}
			Axpy(av, brow, out.Row(i))
		}
	}
}

// transShapes are the TransA/TransB bit-identity tests' shapes, rows×inner
// × cols: empty ones, single rows and columns, the model's attention and
// head shapes, and a b wider than one matmul tile.
var transShapes = [][3]int{{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {1, 1, 1}, {4, 6, 5}, {7, 24, 24}, {48, 24, 48}, {5, 9, matmulTileJ + 9}}

// TestMatMulTransBMatchesExplicit holds MatMulTransBInto, which packs bᵀ
// and runs the Axpy form, to a×bᵀ through an explicit transpose and
// MatMulInto, and to one Dot per element, bit for bit, over stale output
// storage and one warm MulScratch across shapes.
func TestMatMulTransBMatchesExplicit(t *testing.T) {
	g := NewRNG(3)
	var ms MulScratch
	for _, sh := range transShapes {
		a, b := NewMatrix(sh[0], sh[1]), NewMatrix(sh[2], sh[1])
		mixedFill(g, a.Data)
		mixedFill(g, b.Data)
		got := stale(sh[0], sh[2])
		ms.MatMulTransBInto(got, a, b)
		want := mul(a, transposed(b))
		sameBits(t, fmt.Sprintf("A×Bᵀ %v vs explicit transpose", sh), got.Data, want.Data)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < b.Rows; j++ {
				want.Set(i, j, Dot(a.Row(i), b.Row(j)))
			}
		}
		sameBits(t, fmt.Sprintf("A×Bᵀ %v vs Dot", sh), got.Data, want.Data)
	}
}

// TestMatMulTransAMatchesExplicit holds MatMulTransAInto to aᵀ×b through an
// explicit transpose and MatMulInto, bit for bit, on finite operands with
// zeros — where skipping a zero term cannot change a bit.
func TestMatMulTransAMatchesExplicit(t *testing.T) {
	g := NewRNG(4)
	for _, sh := range transShapes {
		a, b := NewMatrix(sh[1], sh[0]), NewMatrix(sh[1], sh[2])
		for i := range a.Data {
			if g.Intn(3) > 0 {
				a.Data[i] = g.Norm()
			}
		}
		b.RandInit(g, 1)
		got := stale(sh[0], sh[2])
		MatMulTransAInto(got, a, b)
		want := mul(transposed(a), b)
		sameBits(t, fmt.Sprintf("Aᵀ×B %v", sh), got.Data, want.Data)
	}
}

// TestMatMulTransABitIdentity holds MatMulTransAInto to the per-element
// loop it replaced on any operands: ±0, NaN and infinite elements in a, and
// the subnormals and near-overflow magnitudes of mixedFill in both.
func TestMatMulTransABitIdentity(t *testing.T) {
	g := NewRNG(6)
	for _, sh := range transShapes {
		a, b := NewMatrix(sh[1], sh[0]), NewMatrix(sh[1], sh[2])
		mixedFill(g, a.Data)
		mixedFill(g, b.Data)
		for range 2 {
			if len(a.Data) > 0 {
				a.Data[g.Intn(len(a.Data))] = dotSpecials[g.Intn(len(dotSpecials))]
			}
		}
		got, want := stale(sh[0], sh[2]), stale(sh[0], sh[2])
		MatMulTransAInto(got, a, b)
		matMulTransAPerElement(want, a, b)
		sameBits(t, fmt.Sprintf("Aᵀ×B %v", sh), got.Data, want.Data)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{4, 5, 6})
	a.Add(b)
	if a.At(0, 1) != 7 {
		t.Fatalf("add got %v", a.Data)
	}
	a.AddScaled(b, -1)
	if a.At(0, 2) != 3 {
		t.Fatalf("addscaled(-1) got %v", a.Data)
	}
	a.Scale(2)
	if a.At(0, 0) != 2 {
		t.Fatalf("scale got %v", a.Data)
	}
	a.AddScaled(b, 0.5)
	if math.Abs(a.At(0, 0)-4) > 1e-12 {
		t.Fatalf("addscaled got %v", a.Data)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			// Keep inputs finite and bounded.
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v[i] = math.Mod(x, 50)
		}
		out := make([]float64, len(v))
		Softmax(out, v)
		var sum float64
		for _, x := range out {
			if x < 0 || x > 1 || math.IsNaN(x) {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	v := []float64{1000, 1001, 1002}
	out := make([]float64, 3)
	Softmax(out, v)
	if math.IsNaN(out[0]) || out[2] < out[1] || out[1] < out[0] {
		t.Fatalf("unstable softmax: %v", out)
	}
}

func TestTopK(t *testing.T) {
	v := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	got, _ := TopKInto(nil, nil, v, 3)
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("topk got %v", got)
	}
	if got, _ := TopKInto(nil, nil, v, 99); len(got) != len(v) {
		t.Fatal("topk should clamp k")
	}
	if got, _ := TopKInto(nil, nil, v, 0); got != nil {
		t.Fatal("topk k=0 should be nil")
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{3, 1, 4, 1, 5}) != 4 {
		t.Fatal("argmax wrong")
	}
	if ArgMax(nil) != -1 {
		t.Fatal("argmax empty should be -1")
	}
}

func TestCosine(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	if d := CosineDist(a, b); math.Abs(d-1) > 1e-12 {
		t.Fatalf("orthogonal dist = %v", d)
	}
	if d := CosineDist(a, a); math.Abs(d) > 1e-12 {
		t.Fatalf("self dist = %v", d)
	}
	if s := CosineSim(a, []float64{0, 0}); s != 0 {
		t.Fatalf("zero-vector sim = %v", s)
	}
}

func TestMeanVariance(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(v); math.Abs(m-5) > 1e-12 {
		t.Fatalf("mean = %v", m)
	}
	if va := Variance(v); math.Abs(va-4) > 1e-12 {
		t.Fatalf("variance = %v", va)
	}
	if Variance([]float64{1}) != 0 {
		t.Fatal("variance of singleton should be 0")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := Named("stream/x")
	b := Named("stream/x")
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-named RNGs diverge")
		}
	}
	c := Named("stream/y")
	if Named("stream/x").Float64() == c.Float64() {
		t.Fatal("differently named RNGs should (almost surely) differ")
	}
}

func TestDirichlet(t *testing.T) {
	g := NewRNG(7)
	p := g.Dirichlet(0.5, 8)
	var sum float64
	for _, x := range p {
		if x < 0 {
			t.Fatalf("negative dirichlet component %v", x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("dirichlet sums to %v", sum)
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewRNG(8)
	counts := make([]int, 16)
	for i := 0; i < 10000; i++ {
		counts[g.Zipf(16, 1.2)]++
	}
	if counts[0] <= counts[15] {
		t.Fatalf("zipf not skewed: first=%d last=%d", counts[0], counts[15])
	}
}

func TestPCAReducesDimsAndSeparates(t *testing.T) {
	g := NewRNG(9)
	// Two clusters along the first axis, noise elsewhere.
	x := NewMatrix(40, 6)
	for i := 0; i < 40; i++ {
		off := -5.0
		if i >= 20 {
			off = 5.0
		}
		row := x.Row(i)
		row[0] = off + g.Gauss(0, 0.1)
		for j := 1; j < 6; j++ {
			row[j] = g.Gauss(0, 0.1)
		}
	}
	p := PCA(x, 2, g, nil)
	if p.Rows != 40 || p.Cols != 2 {
		t.Fatalf("pca shape %dx%d", p.Rows, p.Cols)
	}
	// First component must separate the clusters.
	var lo, hi float64
	for i := 0; i < 20; i++ {
		lo += p.At(i, 0)
		hi += p.At(i+20, 0)
	}
	if math.Abs(lo-hi) < 50 {
		t.Fatalf("pca failed to separate clusters: lo=%v hi=%v", lo, hi)
	}
}

func TestPCAClampK(t *testing.T) {
	g := NewRNG(10)
	x := NewMatrix(5, 3)
	x.RandInit(g, 1)
	p := PCA(x, 10, g, nil)
	if p.Cols != 3 {
		t.Fatalf("pca should clamp k to cols, got %d", p.Cols)
	}
}

func TestMatMulIntoReuse(t *testing.T) {
	g := NewRNG(11)
	a := NewMatrix(3, 4)
	b := NewMatrix(4, 2)
	a.RandInit(g, 1)
	b.RandInit(g, 1)
	var ms MulScratch
	out := stale(3, 2)
	ms.MatMulInto(out, a, b)
	want := NewMatrix(3, 2)
	naiveMatMulInto(want, a, b)
	if !out.Equal(want, 0) {
		t.Fatal("MatMulInto over stale contents differs from the naive kernel")
	}
	ms.MatMulInto(out, a, b) // and again over its own previous result
	if !out.Equal(want, 0) {
		t.Fatal("MatMulInto rerun over its own output differs from the naive kernel")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("clamp wrong")
	}
}

// TestPCAScratchReuse runs PCA on inputs of several shapes through one
// scratch and holds each result to a scratch-less call bit for bit.
func TestPCAScratchReuse(t *testing.T) {
	var s PCAScratch
	for i, shape := range [][3]int{{40, 12, 4}, {9, 30, 6}, {40, 12, 4}, {3, 5, 10}, {25, 48, 6}} {
		x := NewMatrix(shape[0], shape[1])
		x.RandInit(NewRNG(int64(20+i)), 1)
		want := PCA(x, shape[2], NewRNG(int64(30+i)), nil)
		got := PCA(x, shape[2], NewRNG(int64(30+i)), &s)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("shape %v: %dx%d, want %dx%d", shape, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for j, w := range want.Data {
			if math.Float64bits(got.Data[j]) != math.Float64bits(w) {
				t.Fatalf("shape %v: element %d is %v, want %v", shape, j, got.Data[j], w)
			}
		}
	}
}

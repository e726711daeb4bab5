package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"testing"
)

// ulpDiff returns how many representable float64s lie between a and b, for
// two finite results of the same sign.
func ulpDiff(a, b float64) uint64 {
	ua, ub := math.Float64bits(a), math.Float64bits(b)
	if ua > ub {
		return ua - ub
	}
	return ub - ua
}

// bigExp returns e**x rounded once from a 300-bit evaluation: the Taylor
// series of x/2²⁰, squared twenty times.
func bigExp(x float64) float64 {
	const prec, halvings = 300, 20
	r := new(big.Float).SetPrec(prec).SetFloat64(x)
	r.SetMantExp(r, -halvings)
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	for i := int64(1); i <= 30; i++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetPrec(prec).SetInt64(i))
		sum.Add(sum, term)
	}
	for i := 0; i < halvings; i++ {
		sum.Mul(sum, sum)
	}
	f, _ := sum.Float64()
	return f
}

// TestExpPortable holds Exp within 1 ulp of the exact result and within 2
// ulp of math.Exp over a dense sweep of [−746, 710] — every result range
// from +0 through the subnormals to the largest finite value — and to the
// exact result on the special cases. math.Exp is not a 1-ulp oracle for
// Exp: on amd64 it is a different algorithm, also within 1 ulp of the
// exact result, so the two can sit on either side of it (at x =
// −704.5692350064644, for one, Exp is one ulp above and math.Exp one below).
func TestExpPortable(t *testing.T) {
	const step = 1.0 / 2048
	g := NewRNG(41)
	n, far := 0, 0
	check := func(x float64) {
		got, want := Exp(x), math.Exp(x)
		if math.IsInf(want, 1) || want == 0 {
			// amd64's math.Exp overflows early, from x ≈ 709.436 on, where the
			// exact result is still finite.
			if exact := bigExp(x); got != want && ulpDiff(got, exact) > 1 {
				t.Fatalf("Exp(%v) = %v, want %v (exact %v)", x, got, want, exact)
			}
			return
		}
		d := ulpDiff(got, want)
		if d > 2 {
			t.Fatalf("Exp(%v) = %v (%#x), math.Exp gives %v (%#x): %d ulp apart",
				x, got, math.Float64bits(got), want, math.Float64bits(want), d)
		}
		if d > 1 {
			far++
		}
		if n++; n%64 == 0 || d > 1 {
			if exact := bigExp(x); ulpDiff(got, exact) > 1 {
				t.Fatalf("Exp(%v) = %v (%#x), exact %v (%#x)", x, got, math.Float64bits(got), exact, math.Float64bits(exact))
			}
		}
	}
	for x := -746.0; x <= 710; x += step {
		check(x)
		check(x + step*g.Float64()) // off the binary grid too
	}
	t.Logf("%d of %d results are 2 ulp from math.Exp (and within 1 of the exact value)", far, n)
	for i := 0; i < 100000; i++ { // |x| small: where most softmax inputs fall
		check(g.Norm() * math.Ldexp(1, -g.Intn(40)))
	}

	nextUp := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	nextDown := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	specials := []struct {
		x, want float64
	}{
		{0, 1},
		{math.Copysign(0, -1), 1},
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), 0},
		{nextUp(expOverflow), math.Inf(1)},
		{math.MaxFloat64, math.Inf(1)},
		{nextDown(expUnderflow), 0},
		{-math.MaxFloat64, 0},
		{nextDown(0x1p-28), 1 + nextDown(0x1p-28)},
		{nextUp(-0x1p-28), 1 + nextUp(-0x1p-28)},
		{math.SmallestNonzeroFloat64, 1},
		{1, math.E},
	}
	for _, s := range specials {
		if got := Exp(s.x); math.Float64bits(got) != math.Float64bits(s.want) {
			t.Errorf("Exp(%v) = %v, want %v", s.x, got, s.want)
		}
	}
	// The edges themselves: finite at the overflow cut, the smallest
	// subnormal at the underflow cut, and ±2⁻²⁸, which take the reduction.
	for _, x := range []float64{expOverflow, expUnderflow, 0x1p-28, -0x1p-28} {
		check(x)
	}
	if got := Exp(expOverflow); math.IsInf(got, 0) || got < math.MaxFloat64/2 {
		t.Errorf("Exp(overflow edge) = %v, want the top of the finite range", got)
	}
	if got := Exp(expUnderflow); got != math.SmallestNonzeroFloat64 {
		t.Errorf("Exp(underflow edge) = %v, want %v", got, math.SmallestNonzeroFloat64)
	}
	for x := -745.0; x < -708.5; x += 0.25 { // subnormal results
		got := Exp(x)
		if got == 0 || got >= 0x1p-1022 {
			t.Fatalf("Exp(%v) = %v, want a subnormal", x, got)
		}
		check(x)
	}
	for _, bits := range []uint64{0x7ff8000000000123, 0xfff8000000000456, 0x7ff0000000000789} {
		nan := math.Float64frombits(bits)
		if got := Exp(nan); math.Float64bits(got) != bits {
			t.Errorf("Exp(%#x) = %#x, want the NaN itself", bits, math.Float64bits(got))
		}
	}
}

// softmaxSpecials are values whose softmax takes every special path of Exp:
// both zeros, subnormals, ±2⁻²⁸, values whose distance from the row max
// underflows Exp or lands among its subnormal results, −Inf, and magnitudes
// near 1e300 whose differences overflow to −Inf. softmaxPoison adds the
// ones that make a row NaN: +Inf and a NaN.
var (
	softmaxSpecials = []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-28, -0x1p-28, 0x1p-29,
		-720, -745.2, -800, -1e5,
		math.Inf(-1),
		1e300, -1e300,
	}
	softmaxPoison = []float64{math.Inf(1), x86NaN}
	// softmaxEdges are Exp's range cuts and their neighbours, all ≤ 0: in a
	// row whose max is 0 they reach Exp unchanged.
	softmaxEdges = []float64{
		0, math.Copysign(0, -1), -math.SmallestNonzeroFloat64,
		-0x1p-28, math.Nextafter(-0x1p-28, 0), -0x1p-29,
		expUnderflow, math.Nextafter(expUnderflow, 0), math.Nextafter(expUnderflow, math.Inf(-1)),
		-708.3964185322641, -708.4, -744.44, -745,
		math.Inf(-1),
	}
)

// softmaxFill fills v by mode: 0 ordinary values, 1 values spread over
// [−760, 10] so that Exp underflows or goes subnormal for some, 2 ordinary
// values with one in three from softmaxSpecials, 3 as 2 plus one element of
// softmaxPoison, 4 softmaxEdges alone, one of them 0.
func softmaxFill(g *RNG, v []float64, mode int) {
	for i := range v {
		switch {
		case mode == 1:
			v[i] = -760 + 770*g.Float64()
		case mode == 4:
			v[i] = softmaxEdges[g.Intn(len(softmaxEdges))]
		case mode >= 2 && g.Intn(3) == 0:
			v[i] = softmaxSpecials[g.Intn(len(softmaxSpecials))]
		default:
			v[i] = 4 * g.Norm()
		}
	}
	if len(v) == 0 {
		return
	}
	switch mode {
	case 3:
		v[g.Intn(len(v))] = softmaxPoison[g.Intn(len(softmaxPoison))]
	case 4:
		v[g.Intn(len(v))] = 0
	}
}

// checkSoftmax runs got and want on identical copies of every Softmax case —
// lengths 0–130 at offsets 0–3, all five fill modes, into a separate dst
// with axpyGuard guard elements on each side and in place — and compares
// the whole buffers bit for bit. A last pass sweeps Exp's argument densely
// over [−746, 0] through rows whose max is 0.
func checkSoftmax(t *testing.T, got, want func(dst, src []float64)) {
	t.Helper()
	g := NewRNG(43)
	src := make([]float64, axpyMaxLen+3)
	init := make([]float64, axpyGuard+axpyMaxLen+3+axpyGuard)
	dGot := make([]float64, len(init))
	dWant := make([]float64, len(init))
	for n := 0; n <= axpyMaxLen; n++ {
		for off := 0; off < 4; off++ {
			for mode := 0; mode < 5; mode++ {
				softmaxFill(g, src, mode)
				mixedFill(g, init)
				s := src[off : off+n]
				copy(dGot, init)
				copy(dWant, init)
				got(dGot[axpyGuard+off:axpyGuard+off+n], s)
				want(dWant[axpyGuard+off:axpyGuard+off+n], s)
				what := fmt.Sprintf("len %d, offset %d, mode %d", n, off, mode)
				sameBits(t, what, dGot, dWant)
				copy(dGot, init)
				copy(dWant, init)
				copy(dGot[axpyGuard+off:], s)
				copy(dWant[axpyGuard+off:], s)
				got(dGot[axpyGuard+off:axpyGuard+off+n], dGot[axpyGuard+off:axpyGuard+off+n])
				want(dWant[axpyGuard+off:axpyGuard+off+n], dWant[axpyGuard+off:axpyGuard+off+n])
				sameBits(t, what+", in place", dGot, dWant)
			}
		}
	}
	const row = 67 // 16 full vectors and a 3-element tail
	x := 0.0
	for x > -746 {
		s := src[:row]
		s[0] = 0
		for i := 1; i < row; i++ {
			x -= 1.0 / 1024
			s[i] = x
		}
		got(dGot[:row], s)
		want(dWant[:row], s)
		sameBits(t, fmt.Sprintf("sweep row ending at %v", x), dGot[:row], dWant[:row])
	}
}

// softmaxRowsOracle is SoftmaxRows as one softmaxGeneric per row.
func softmaxRowsOracle(m *Matrix, lo int) {
	for t := 0; t < m.Rows; t++ {
		row := m.Row(t)[:min(lo+t+1, m.Cols)]
		softmaxGeneric(row, row)
	}
}

// softmaxRowsCounts are the row counts checkSoftmaxRows runs: every count
// up to two full blocks of eight and one more, and three around 64.
var softmaxRowsCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 63, 64, 65}

// checkSoftmaxRows runs got and the per-row oracle on identical copies of
// every SoftmaxRows case — the row counts of softmaxRowsCounts, widths
// 1–72 and every row offset lo from 0 to one past the width, the fill mode
// turning over from case to case — with axpyGuard guard elements after the
// matrix, and compares the whole buffers bit for bit: the entries past each
// row's live prefix and the guards must keep their bits.
func checkSoftmaxRows(t *testing.T, got func(m *Matrix, lo int)) {
	t.Helper()
	g := NewRNG(47)
	maxRows := softmaxRowsCounts[len(softmaxRowsCounts)-1]
	const maxCols = 72
	init := make([]float64, maxRows*maxCols+axpyGuard)
	bGot := make([]float64, len(init))
	bWant := make([]float64, len(init))
	mode := 0
	for _, rows := range softmaxRowsCounts {
		for cols := 1; cols <= maxCols; cols++ {
			for lo := 0; lo <= cols+1; lo++ {
				n := rows * cols
				softmaxFill(g, init[:n], mode)
				mixedFill(g, init[n:n+axpyGuard])
				mode = (mode + 1) % 5
				copy(bGot, init)
				copy(bWant, init)
				got(FromSlice(rows, cols, bGot[:n]), lo)
				softmaxRowsOracle(FromSlice(rows, cols, bWant[:n]), lo)
				sameBits(t, fmt.Sprintf("%dx%d, lo %d", rows, cols, lo), bGot[:n+axpyGuard], bWant[:n+axpyGuard])
			}
		}
	}
}

// TestSoftmaxRowsBitIdentity holds SoftmaxRows — the AVX-512 kernel on its
// blocks where it runs, Softmax on the rest — to one portable Softmax per
// row.
func TestSoftmaxRowsBitIdentity(t *testing.T) {
	checkSoftmaxRows(t, SoftmaxRows)
}

// sameBitsOrNaN is sameBits for outputs whose NaNs may carry any payload:
// which payload survives when two NaNs meet is outside the contract.
func sameBitsOrNaN(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// FuzzSoftmax holds the dispatched Softmax — the AVX kernel where it runs —
// to the portable loop bit for bit on arbitrary rows: the input bytes are
// read as float64s, every bit pattern included.
func FuzzSoftmax(f *testing.F) {
	seed := make([]byte, 0, 8*len(softmaxSpecials))
	for _, v := range append(softmaxSpecials, softmaxPoison...) {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Add(seed[:8*5])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		src := make([]float64, len(b)/8)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		got := make([]float64, len(src))
		want := make([]float64, len(src))
		Softmax(got, src)
		softmaxGeneric(want, src)
		sameBitsOrNaN(t, fmt.Sprintf("len %d", len(src)), got, want)
		// The rows form: the same values as a matrix of up to 72 columns,
		// its row offset taken from the length.
		if len(src) == 0 {
			return
		}
		cols := 1 + len(src)%72
		rows := (len(src) + cols - 1) / cols
		lo := len(src) % (cols + 2)
		gotM, wantM := NewMatrix(rows, cols), NewMatrix(rows, cols)
		copy(gotM.Data, src)
		copy(wantM.Data, src)
		SoftmaxRows(gotM, lo)
		softmaxRowsOracle(wantM, lo)
		sameBitsOrNaN(t, fmt.Sprintf("%dx%d, lo %d", rows, cols, lo), gotM.Data, wantM.Data)
	})
}

// TestTopKNaN pins TopKInto on rows with NaNs: a NaN ranks below every
// number, and ties — all-NaN or all −Inf rows included — take the lowest
// unused index, so the result is always k distinct valid indices.
func TestTopKNaN(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		v    []float64
		k    int
		want []int
	}{
		{[]float64{nan, 0.2, nan, 0.7}, 2, []int{3, 1}},
		{[]float64{nan, 0.2, nan, 0.7}, 4, []int{3, 1, 0, 2}},
		{[]float64{nan, nan, nan}, 2, []int{0, 1}},
		{[]float64{-inf, -inf, -inf}, 3, []int{0, 1, 2}},
		{[]float64{nan, -inf, nan}, 3, []int{1, 0, 2}},
		{[]float64{0.5, nan, inf, 0.5}, 3, []int{2, 0, 3}},
	}
	var idx []int
	var used []bool
	for _, c := range cases {
		idx, used = TopKInto(idx, used, c.v, c.k)
		if fmt.Sprint(idx) != fmt.Sprint(c.want) {
			t.Errorf("TopKInto(%v, %d) = %v, want %v", c.v, c.k, idx, c.want)
		}
	}
	// A NaN gate logit makes its whole softmax row NaN; routing must still
	// pick k distinct experts.
	logits := []float64{0.1, nan, -0.3, 0.8}
	probs := make([]float64, len(logits))
	Softmax(probs, logits)
	idx, _ = TopKInto(idx, used, probs, 2)
	if fmt.Sprint(idx) != "[0 1]" {
		t.Errorf("TopKInto over an all-NaN softmax row = %v, want [0 1]", idx)
	}
}

// TestTopTwoMatchesScan holds TopKInto's one-pass path for k = 1 and 2 to
// the pass-per-pick scan on rows of 1–17 elements drawn from a small set of
// values, so that ties are common, with NaNs, ±Inf and both zeros among
// them.
func TestTopTwoMatchesScan(t *testing.T) {
	nan := math.NaN()
	values := []float64{nan, math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1), -1, 0.5, 0.5, 2}
	g := NewRNG(71)
	v := make([]float64, 17)
	var got, want []int
	var used []bool
	for trial := 0; trial < 20000; trial++ {
		n := 1 + trial%17
		for i := range v[:n] {
			v[i] = values[g.Intn(len(values))]
		}
		for k := 1; k <= 2; k++ {
			got, used = TopKInto(got, used, v[:n], k)
			want, used = topKScan(want[:0], used, v[:n], min(k, n))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("TopKInto(%v, %d) = %v, the scan gives %v", v[:n], k, got, want)
			}
		}
	}
}

// BenchmarkSoftmax runs Softmax at the models' row lengths: 8 and 16 (the
// LLaMA and DeepSeek stand-ins' gate rows, and attention rows of that many
// live positions) and 48 (a vocabulary row of the cross-entropy and of
// option scoring), and at attention rows of 3, 9 and 20 live positions,
// whose last elements take the assembly's masked tail. Rows are cut from
// one matrix, as the model's are: a row in a small allocation of its own
// reads markedly slower at the tail lengths.
func BenchmarkSoftmax(b *testing.B) {
	const rows = 8
	for _, n := range []int{3, 8, 9, 16, 20, 48} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := NewRNG(8)
			src, dst := NewMatrix(rows, n), NewMatrix(rows, n)
			for i := range src.Data {
				src.Data[i] = 2 * g.Norm()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Softmax(dst.Row(i%rows), src.Row(i%rows))
			}
		})
	}
	// SoftmaxRows at the models' block shapes: the router's 22 rows of 8
	// and of 16 gate logits, whole, and causal score matrices of 22 and 40
	// positions. Softmax's output is a valid input, so the rows are
	// softmaxed in place again and again.
	for _, sh := range []struct {
		name       string
		rows, cols int
		lo         int
	}{
		{"rows=22x8", 22, 8, 8},
		{"rows=22x16", 22, 16, 16},
		{"causal=22", 22, 22, 0},
		{"causal=40", 40, 40, 0},
	} {
		b.Run(sh.name, func(b *testing.B) {
			g := NewRNG(8)
			m := NewMatrix(sh.rows, sh.cols)
			for i := range m.Data {
				m.Data[i] = 2 * g.Norm()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SoftmaxRows(m, sh.lo)
			}
		})
	}
}

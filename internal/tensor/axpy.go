package tensor

// Vector kernels. There are three forms of product in this engine:
//
//   - Axpy form, y += a·x and y += xᵀW: every output element accumulates its
//     own terms, and neighbouring outputs are independent. Axpy, AxpyRows
//     and AxpyNonzeroRows.
//   - Rank-1 form, G += x·yᵀ: one Axpy per row of G, so every element takes
//     exactly one term. OuterRows and OuterNonzeroRows, the expert weight
//     gradients.
//   - Dot form, y = W·x: every output is one reduction, a single accumulator
//     summed in ascending order from +0. Dot, and DotRows4, the same over
//     four vectors at once. Where one vector meets a whole matrix — a query
//     against every key — the caller transposes the matrix and takes the
//     Axpy form instead: AxpyRows from a +0 output adds each output's terms
//     in the same ascending order as Dot, so the bits are the same.
//
// Beside them are one elementwise kernel, ReLU, the expert FFN's clamp,
// and one row kernel, Softmax (vector.go), with its block form
// SoftmaxRows, whose exp is Exp (exp.go).
//
// Each output gets one rounded multiply and then one rounded add per term,
// terms in ascending order — never a fused multiply-add — so every form of a
// kernel gives the same bits: the assembly on amd64 (axpy_amd64.s, in an
// AVX tier and, for the Axpy and rank-1 forms, an AVX-512 one, each chosen
// at package init when the CPU and OS support it) and the portable loops
// below, which run everywhere else and under the purego build tag, and
// which are the oracle the assembly is tested against. The one thing the
// contract leaves open is which NaN payload survives when two NaNs meet in
// one operation; a NaN result stays a NaN in every form.
//
// The assembly vectorises across outputs and never along a reduction. The
// Axpy and rank-1 forms put neighbouring columns in neighbouring lanes; the
// zero-skipping ones first turn x into a bit mask, 64 rows at a time, and
// then visit only its set bits. DotRows4 puts four vectors in the four
// lanes, so lane l is vector l's dot product with a row of W and no lane
// ever mixes two sums: it runs at the Axpy form's rate. Splitting one sum
// across lanes would reorder it and change bits, which is why Dot itself — a
// single reduction with no second output to vectorise across — stays
// scalar. The layer norms' reductions stay scalar too, but their caller
// interleaves the chains of four rows. Softmax vectorises its elementwise
// work, the exps and the divides, four lanes wide, and adds each lane into
// its one scalar sum in ascending order; its max is order-free. Where
// AVX-512F runs, SoftmaxRows instead gives each of eight rows a lane, and
// MulRows runs four rows' Axpy-form chains side by side: a lane is still
// one output's chain, so neither reorders a sum.

// Axpy adds a*x elementwise into y: y[i] += a*x[i]. Lengths must match and y
// must not overlap x. It is the inner kernel of the weighted expert sum
// and SGD.
//
// Hot path: the innermost vector kernel of expert forward/backward and SGD;
// 0 allocs/op, pinned by TestAxpyKernelsZeroAllocs.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: axpy length mismatch")
	}
	axpy(a, x, y)
}

// AxpyRows adds xᵀW into y: y[j] += Σₖ x[k]·w[k·stride+j] for every j <
// len(y), where row k of W starts at w[k·stride]. It is bit-identical to
// len(x) successive Axpy(x[k], w[k·stride:k·stride+len(y)], y) calls — every
// element accumulates its terms in ascending k — but the assembly form keeps
// y in registers across all rows instead of loading and storing it once per
// row. stride must be at least len(y), w must hold the last row, and y must
// not overlap x or w. It is the inner kernel of MatMulTransBInto and PCA's
// power iteration, and takes the rows MulRows leaves over: every row off
// AVX-512F, and the last one to three rows of a block elsewhere — among
// them a decode step's expert W1 sweeps and attention rows, and the tail of
// each longer attention row past its block's shortest live prefix.
//
// Hot path: the row-times-matrix kernel behind every forward matmul and
// expert W1 sweep; 0 allocs/op, pinned by TestAxpyKernelsZeroAllocs.
func AxpyRows(y, x, w []float64, stride int) {
	checkRowShape("axpyrows", y, x, w, stride)
	axpyRows(y, x, w, stride)
}

// MulRows writes y = bias + x·W over rows rows: row i of y, the n elements
// from y[i·ystride], gets bias[j] — or +0 for a nil bias — plus x[i·xstride+k]
// times w[k·wstride+j] for every k below the inner length kk, in ascending
// k. Each row is bit-identical to copying the bias into it, or clearing it,
// and then one AxpyRows(row, x row i, w, wstride). Where AVX-512F runs, the
// rows go four at a time through one kernel that runs their chains side by
// side, in panels of up to 24 columns, and the rows left over take one
// AxpyRows each. Every stride must be at least the row it steps over
// (xstride ≥ kk, wstride and ystride ≥ n), the slices must hold their last
// rows, and y must not overlap x, w or bias. It is the kernel of MatMulInto,
// of the expert FFN's W1 sweep over its routed tokens, and of attention's
// scores and value sums.
//
// Hot path: every forward matmul, expert W1 sweep and attention product; 0
// allocs/op, pinned by TestAxpyKernelsZeroAllocs.
func MulRows(y []float64, ystride int, x []float64, xstride int, w []float64, wstride int, bias []float64, rows, kk, n int) {
	switch {
	case xstride < kk || wstride < n || ystride < n:
		panic("tensor: mulrows stride shorter than a row")
	case len(x) < (rows-1)*xstride+kk || len(y) < (rows-1)*ystride+n:
		panic("tensor: mulrows rows shorter than the last row")
	case kk > 0 && len(w) < (kk-1)*wstride+n:
		panic("tensor: mulrows weights shorter than the last row")
	case bias != nil && len(bias) < n:
		panic("tensor: mulrows bias shorter than a row")
	}
	done := 0
	if rows >= 4 {
		done = mulRows4(y, x, w, bias, rows, kk, n, xstride, wstride, ystride, false)
	}
	for i := done; i < rows; i++ {
		row := y[i*ystride : i*ystride+n]
		if bias == nil {
			clear(row)
		} else {
			copy(row, bias)
		}
		axpyRows(row, x[i*xstride:i*xstride+kk], w, wstride)
	}
}

// AxpyNonzeroRows is AxpyRows over the rows whose x[k] is not zero: it is
// bit-identical to one Axpy(x[k], row k, y) per k with x[k] != 0, in
// ascending k. Skipping is not an optimisation but the contract: a row with
// x[k] == ±0 contributes ±0 terms, and a +0 added to a -0 in y would flip
// its sign bit. A NaN x[k] is not zero, so its row is added. The assembly
// form has no branch per row — it turns each chunk of up to 64 rows of x
// into a bit mask, four or eight rows per compare, then sweeps only the
// set bits, lowest first — because the zero pattern of a ReLU output
// defeats branch prediction. The argument rules are AxpyRows'.
// It is the inner kernel of the expert FFN's W2 sweep, where x is the ReLU
// output and roughly half its units are closed.
//
// Hot path: the ReLU-sparse W2 sweep of every expert forward; 0 allocs/op,
// pinned by TestAxpyKernelsZeroAllocs.
func AxpyNonzeroRows(y, x, w []float64, stride int) {
	checkRowShape("axpynonzerorows", y, x, w, stride)
	axpyNonzeroRows(y, x, w, stride)
}

// OuterRows adds the outer product x·yᵀ into G: g[k·stride+j] += x[k]·y[j]
// for every k < len(x) and j < len(y), where row k of G starts at
// g[k·stride]. It is bit-identical to len(x) successive Axpy(x[k], y,
// g[k·stride:k·stride+len(y)]) calls, but the assembly form keeps y in
// registers across all rows and makes one call for the whole matrix. stride
// must be at least len(y), g must hold the last row, and g must not overlap
// x or y. It is the expert backward's dW1 sweep, dW1 += xᵀ·dh.
//
// Hot path: the W1 gradient of every trainable expert's backward; 0
// allocs/op, pinned by TestAxpyKernelsZeroAllocs.
func OuterRows(g, x, y []float64, stride int) {
	checkRowShape("outerrows", y, x, g, stride)
	outerRows(g, x, y, stride)
}

// OuterNonzeroRows is OuterRows over the rows whose x[k] is not zero: it is
// bit-identical to one Axpy(x[k], y, row k of G) per k with x[k] != 0. As in
// AxpyNonzeroRows the skip is the contract — a ±0 row would add ±0 terms,
// flipping a -0 in G — a NaN x[k] is not zero, and the assembly form
// sweeps the set bits of the same per-chunk mask. The argument rules are
// OuterRows'. It is the expert backward's dW2 sweep, dW2 += hiddenᵀ·dy over
// the units the ReLU left open, and MatMulTransAInto's one call per row of
// a.
//
// Hot path: the W2 gradient of every trainable expert's backward; 0
// allocs/op, pinned by TestAxpyKernelsZeroAllocs.
func OuterNonzeroRows(g, x, y []float64, stride int) {
	checkRowShape("outernonzerorows", y, x, g, stride)
	outerNonzeroRows(g, x, y, stride)
}

// DotRows4 computes W·x for four vectors stored interleaved: x holds k
// elements of each, vector l's element i at x[i·4+l], and y receives
// len(y)/4 rows the same way, where row j of W starts at w[j·stride].
// y[j·4+l] = Σᵢ w[j·stride+i]·x[i·4+l], bit-identical to
// Dot(w[j·stride:j·stride+k], vector l): one accumulator per output, from
// +0, terms in ascending i. It overwrites y. len(x) and len(y)
// must be multiples of four, stride at least k = len(x)/4, w must hold the
// last row, and y must not overlap x or w. The assembly form holds vector
// l in lane l, so it multiplies a broadcast w element by a whole row of x
// and needs no transpose, and keeps eight rows of W in flight. It is the
// expert backward's kernel, dh = W2·dy and then dx = W1·dh, over blocks of
// four routed tokens.
//
// Hot path: both products of every expert backward; 0 allocs/op, pinned by
// TestAxpyKernelsZeroAllocs.
func DotRows4(y, x, w []float64, stride int) {
	k := len(x) / 4
	if len(x)%4 != 0 || len(y)%4 != 0 {
		panic("tensor: dotrows4 vectors not interleaved by four")
	}
	if stride < k {
		panic("tensor: dotrows4 stride shorter than a row")
	}
	if len(y) > 0 && len(w) < (len(y)/4-1)*stride+k {
		panic("tensor: dotrows4 weights shorter than the last row")
	}
	dotRows4(y, x, w, stride)
}

// ReLU clamps y in place: y[j] = +0 wherever y[j] < 0. Every other element
// keeps its bits, −0 and NaN (any payload, either sign) included, since
// neither compares below zero. The assembly form is branch-free — a vector
// max with +0 as the first operand, which returns the second operand, y[j],
// when both are zero or either is NaN — because the sign pattern of a
// pre-activation defeats branch prediction. It is the expert FFN's
// nonlinearity.
//
// Hot path: the ReLU clamp of every expert forward; 0 allocs/op, pinned by
// TestAxpyKernelsZeroAllocs.
func ReLU(y []float64) {
	relu(y)
}

// checkRowShape panics unless w holds len(x) rows of len(y) elements at the
// given stride.
func checkRowShape(name string, y, x, w []float64, stride int) {
	if stride < len(y) {
		panic("tensor: " + name + " stride shorter than a row")
	}
	if len(x) > 0 && len(w) < (len(x)-1)*stride+len(y) {
		panic("tensor: " + name + " weights shorter than the last row")
	}
}

// axpyGeneric is the portable Axpy. The 4-way unroll only reduces loop
// overhead; the float64 conversion forbids the compiler to fuse the multiply
// into the add on architectures that have an FMA instruction.
func axpyGeneric(a float64, x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += float64(a * x[i])
		y[i+1] += float64(a * x[i+1])
		y[i+2] += float64(a * x[i+2])
		y[i+3] += float64(a * x[i+3])
	}
	for ; i < len(x); i++ {
		y[i] += float64(a * x[i])
	}
}

// axpyRowsGeneric is the portable AxpyRows: literally one Axpy per row.
func axpyRowsGeneric(y, x, w []float64, stride int) {
	off := 0
	for _, xv := range x {
		axpyGeneric(xv, w[off:off+len(y)], y)
		off += stride
	}
}

// axpyNonzeroRowsGeneric is the portable AxpyNonzeroRows: one Axpy per
// nonzero row.
func axpyNonzeroRowsGeneric(y, x, w []float64, stride int) {
	off := 0
	for _, xv := range x {
		if xv != 0 {
			axpyGeneric(xv, w[off:off+len(y)], y)
		}
		off += stride
	}
}

// outerRowsGeneric is the portable OuterRows: literally one Axpy per row.
func outerRowsGeneric(g, x, y []float64, stride int) {
	off := 0
	for _, xv := range x {
		axpyGeneric(xv, y, g[off:off+len(y)])
		off += stride
	}
}

// outerNonzeroRowsGeneric is the portable OuterNonzeroRows: one Axpy per
// nonzero row.
func outerNonzeroRowsGeneric(g, x, y []float64, stride int) {
	off := 0
	for _, xv := range x {
		if xv != 0 {
			axpyGeneric(xv, y, g[off:off+len(y)])
		}
		off += stride
	}
}

// reluGeneric is the portable ReLU: the compare-and-store loop the assembly
// reproduces.
func reluGeneric(y []float64) {
	for j, v := range y {
		if v < 0 {
			y[j] = 0
		}
	}
}

// dotRows4Generic is the portable DotRows4: per row of W, four Dot
// accumulators side by side, each reading its own lane of x. The float64
// conversions forbid fused multiply-adds, as in axpyGeneric.
func dotRows4Generic(y, x, w []float64, stride int) {
	k := len(x) / 4
	off := 0
	for j := 0; j+4 <= len(y); j += 4 {
		row := w[off : off+k]
		var s0, s1, s2, s3 float64
		for i, wv := range row {
			xi := x[i*4 : i*4+4]
			s0 += float64(wv * xi[0])
			s1 += float64(wv * xi[1])
			s2 += float64(wv * xi[2])
			s3 += float64(wv * xi[3])
		}
		y[j], y[j+1], y[j+2], y[j+3] = s0, s1, s2, s3
		off += stride
	}
}

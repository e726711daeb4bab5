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
//     summed in ascending order from +0. DotRows (and Dot, its one-row case),
//     and DotRows4, the same over four vectors at once.
//
// Beside them are one elementwise kernel, ReLU, the expert FFN's clamp,
// and one row kernel, Softmax (vector.go), whose exp is Exp (exp.go).
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
// ever mixes two sums: it runs at the Axpy form's rate. DotRows, with one
// vector, keeps four rows of W in the four lanes of one accumulator instead:
// it multiplies a 4×4 block of W by x elementwise and transposes the
// products in registers, so each lane still adds its own row's terms in
// ascending order, at about half that rate. Splitting one row's sum across
// lanes would reorder it and change bits, which is why Dot itself — a single
// reduction with no second output to vectorise across — stays scalar, as do
// the layer-norm reductions. Softmax vectorises its elementwise work, the
// exps and the divides, four lanes wide, and adds each lane into its one
// scalar sum in ascending order; its max is order-free.

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
// not overlap x or w. It is the inner kernel of MulScratch.MatMulInto and
// MatMulTransBInto, the expert FFN's W1 sweep, attention's value sum and
// PCA's power iteration.
//
// Hot path: the row-times-matrix kernel of every forward matmul and expert W1
// sweep; 0 allocs/op, pinned by TestAxpyKernelsZeroAllocs.
func AxpyRows(y, x, w []float64, stride int) {
	checkRowShape("axpyrows", y, x, w, stride)
	axpyRows(y, x, w, stride)
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

// DotRows computes W·x into y: y[j] = Σₖ w[j·stride+k]·x[k] for every j <
// len(y), where row j of W starts at w[j·stride]. It overwrites y, and each
// y[j] is bit-identical to Dot(w[j·stride:j·stride+len(x)], x): one
// accumulator per row, starting from +0, terms in ascending k. It is the
// transpose dual of AxpyRows. stride must be at least len(x), w must hold
// the last row, and y must not overlap x or w. It is the attention scores'
// kernel, one query against every key row; where several vectors meet the
// same W, DotRows4 takes them four at a time at twice the rate.
//
// Hot path: the matrix-times-vector kernel of attention scores; 0 allocs/op,
// pinned by TestAxpyKernelsZeroAllocs.
func DotRows(y, x, w []float64, stride int) {
	if stride < len(x) {
		panic("tensor: dotrows stride shorter than a row")
	}
	if len(y) > 0 && len(w) < (len(y)-1)*stride+len(x) {
		panic("tensor: dotrows weights shorter than the last row")
	}
	dotRows(y, x, w, stride)
}

// DotRows4 is DotRows over four vectors stored interleaved: x holds k
// elements of each, vector l's element i at x[i·4+l], and y receives
// len(y)/4 rows the same way. y[j·4+l] = Σᵢ w[j·stride+i]·x[i·4+l], bit-
// identical to Dot(w[j·stride:j·stride+k], vector l): one accumulator per
// output, from +0, terms in ascending i. It overwrites y. len(x) and len(y)
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

// dotRowsGeneric is the portable DotRows: literally one Dot per row.
func dotRowsGeneric(y, x, w []float64, stride int) {
	off := 0
	for j := range y {
		y[j] = Dot(w[off:off+len(x)], x)
		off += stride
	}
}

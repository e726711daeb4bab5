package tensor

// Vector kernels. There are two forms of product in this engine:
//
//   - Axpy form, y += a·x and y += xᵀW: every output element accumulates its
//     own terms, and neighbouring outputs are independent. Axpy, AxpyRows
//     and AxpyNonzeroRows.
//   - Dot form, y = W·x: every output is one reduction, a single accumulator
//     summed in ascending order from +0. DotRows (and Dot, its one-row case).
//
// Beside them are one elementwise kernel, ReLU, the expert FFN's clamp,
// and one row kernel, Softmax (vector.go), whose exp is Exp (exp.go).
//
// Each output gets one rounded multiply and then one rounded add per term,
// terms in ascending order — never a fused multiply-add — so every form of a
// kernel gives the same bits: the AVX assembly on amd64 (axpy_amd64.s,
// chosen at package init when the CPU and OS support it) and the portable
// loops below, which run everywhere else and under the purego build tag, and
// which are the oracle the assembly is tested against. The one thing the
// contract leaves open is which NaN payload survives when two NaNs meet in
// one operation; a NaN result stays a NaN in every form.
//
// The assembly vectorises across outputs and never along a reduction. The
// Axpy forms put neighbouring columns in neighbouring lanes. DotRows keeps
// four rows of W in the four lanes of one accumulator: it multiplies a 4×4
// block of W by x elementwise and transposes the products in registers, so
// each lane still adds its own row's terms in ascending order. Splitting one
// row's sum across lanes would reorder it and change bits, which is why
// Dot itself — a single reduction with no second output to vectorise
// across — stays scalar, as do the layer-norm reductions. Softmax
// vectorises its elementwise work, the exps and the divides, four lanes
// wide, and adds each lane into its one scalar sum in ascending order; its
// max is order-free.

// Axpy adds a*x elementwise into y: y[i] += a*x[i]. Lengths must match and y
// must not overlap x. It is the inner kernel of the weighted expert sum,
// the trainable experts' weight gradients, MatMulTransAInto and SGD.
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
// not overlap x or w. It is the inner kernel of MulScratch.MatMulInto, the
// expert FFN's W1 sweep and attention's value sum.
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
// form is branch-free — it first compacts the nonzero rows into a list
// without a branch per row, then sweeps only those — because the zero
// pattern of a ReLU output defeats branch prediction. The argument rules
// are AxpyRows'.
// It is the inner kernel of the expert FFN's W2 sweep, where x is the ReLU
// output and roughly half its units are closed.
//
// Hot path: the ReLU-sparse W2 sweep of every expert forward; 0 allocs/op,
// pinned by TestAxpyKernelsZeroAllocs.
func AxpyNonzeroRows(y, x, w []float64, stride int) {
	checkRowShape("axpynonzerorows", y, x, w, stride)
	axpyNonzeroRows(y, x, w, stride)
}

// DotRows computes W·x into y: y[j] = Σₖ w[j·stride+k]·x[k] for every j <
// len(y), where row j of W starts at w[j·stride]. It overwrites y, and each
// y[j] is bit-identical to Dot(w[j·stride:j·stride+len(x)], x): one
// accumulator per row, starting from +0, terms in ascending k. It is the
// transpose dual of AxpyRows. stride must be at least len(x), w must hold
// the last row, and y must not overlap x or w. It is the inner kernel of
// MatMulTransBInto, attention scores, the expert backward's dh and dx, and
// PCA's power iteration.
//
// Hot path: the matrix-times-vector kernel of attention scores and every
// backward dot product; 0 allocs/op, pinned by TestAxpyKernelsZeroAllocs.
func DotRows(y, x, w []float64, stride int) {
	if stride < len(x) {
		panic("tensor: dotrows stride shorter than a row")
	}
	if len(y) > 0 && len(w) < (len(y)-1)*stride+len(x) {
		panic("tensor: dotrows weights shorter than the last row")
	}
	dotRows(y, x, w, stride)
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

// reluGeneric is the portable ReLU: the compare-and-store loop the assembly
// reproduces.
func reluGeneric(y []float64) {
	for j, v := range y {
		if v < 0 {
			y[j] = 0
		}
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

package tensor

// Axpy-form kernels: y += a·x and y += xᵀW. Each output element gets one
// rounded multiply and then one rounded add per term, terms in ascending
// order — never a fused multiply-add — so every form of a kernel gives the
// same bits: the AVX assembly on amd64 (axpy_amd64.s, chosen at package init
// when the CPU and OS support it) and the portable loops below, which run
// everywhere else and under the purego build tag, and which are the oracle
// the assembly is tested against. Nothing here reorders a sum, which is why
// the dot-form kernels (Dot, MatMulTransBInto, attention scores, the expert
// backward's dh/dx) stay scalar: vectorising them would.

// Axpy adds a*x elementwise into y: y[i] += a*x[i]. Lengths must match and y
// must not overlap x. It is the inner kernel of the expert FFN's W2 sweep,
// the weighted expert sum, MatMulTransAInto and SGD.
//
//fluxvet:hotpath innermost vector kernel of expert forward/backward and SGD
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
// expert FFN's W1 sweep and incremental attention.
//
//fluxvet:hotpath row-times-matrix kernel of every forward matmul and expert W1 sweep
func AxpyRows(y, x, w []float64, stride int) {
	if stride < len(y) {
		panic("tensor: axpyrows stride shorter than a row")
	}
	if len(x) > 0 && len(w) < (len(x)-1)*stride+len(y) {
		panic("tensor: axpyrows weights shorter than the last row")
	}
	axpyRows(y, x, w, stride)
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

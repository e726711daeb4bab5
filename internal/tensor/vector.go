package tensor

import "math"

// Dot returns the inner product of a and b. Lengths must match.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy adds a*x elementwise into y: y[i] += a*x[i]. Lengths must match. The
// 4-way unroll only reduces loop overhead — each element still sees exactly
// one fused accumulation, so results are bit-identical to the plain loop.
// This is the inner kernel of the matmul fast path and the expert FFN.
//
//fluxvet:hotpath innermost vector kernel of expert forward/backward and SGD
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: axpy length mismatch")
	}
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// CosineSim returns the cosine similarity of a and b, or 0 if either is zero.
func CosineSim(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// CosineDist returns 1 - CosineSim(a, b); it is 0 for identical directions
// and 2 for opposite ones. The paper uses this as its "output error" metric.
func CosineDist(a, b []float64) float64 { return 1 - CosineSim(a, b) }

// Softmax writes the softmax of src into dst (may alias). It is numerically
// stabilized by max subtraction.
func Softmax(dst, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: softmax length mismatch")
	}
	mx := math.Inf(-1)
	for _, v := range src {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(v - mx)
		dst[i] = e
		sum += e
	}
	if sum == 0 {
		u := 1 / float64(len(dst))
		for i := range dst {
			dst[i] = u
		}
		return
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// SoftmaxInPlace replaces v with softmax(v).
func SoftmaxInPlace(v []float64) { Softmax(v, v) }

// ArgMax returns the index of the largest element, -1 for empty input.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return bi
}

// TopK returns the indices of the k largest elements in descending value
// order. k is clamped to len(v). Selection is deterministic: ties break
// toward the lower index.
func TopK(v []float64, k int) []int {
	idx, _ := TopKInto(nil, nil, v, k)
	return idx
}

// TopKInto is TopK with caller-owned buffers: idx receives the selected
// indices (reused when capacity suffices) and used is the selection bitmap
// (grown as needed, reset on entry). Either may be nil. It returns the index
// slice and the used buffer for reuse; with warm buffers it does not
// allocate.
func TopKInto(idx []int, used []bool, v []float64, k int) ([]int, []bool) {
	if k > len(v) {
		k = len(v)
	}
	if k <= 0 {
		return idx[:0], used
	}
	if cap(used) < len(v) {
		//fluxvet:allow hotalloc bitmap grows once to the expert-count high-water mark, then the cap check short-circuits
		used = make([]bool, len(v))
	} else {
		used = used[:len(v)]
		for i := range used {
			used[i] = false
		}
	}
	idx = idx[:0]
	for n := 0; n < k; n++ {
		best := math.Inf(-1)
		bi := -1
		for i, x := range v {
			if !used[i] && x > best {
				best, bi = x, i
			}
		}
		used[bi] = true
		idx = append(idx, bi) //fluxvet:allow hotalloc appends into the caller's reused index slice resliced to length 0; capacity reaches k after the first call
	}
	return idx, used
}

// Mean returns the arithmetic mean of v, or 0 for empty input.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v, or 0 for len(v) < 2.
func Variance(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// Clamp returns x limited to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

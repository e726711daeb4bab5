package tensor

import "math"

// Dot returns the inner product of a and b. Lengths must match. It is one
// accumulator from +0, terms in ascending order, and it stays scalar: a
// single sum has no second output to vectorise across, and splitting it
// across lanes would reorder it and change bits. Where many dot products
// share one vector — W·x — DotRows vectorises across the rows instead, each
// lane still one such accumulator, bit for bit.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
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

// Softmax writes the softmax of src into dst, which may be src itself but
// must not otherwise overlap it. It is numerically stabilized by max
// subtraction: the row max mx (a NaN element never wins it), then dst[i] =
// Exp(src[i]-mx), summed in ascending i from +0, then dst[i] /= sum. The
// max element contributes Exp(0) = 1, so the sum of a non-empty row is
// never zero; a NaN element, a +Inf element or a row of −Inf makes every
// output NaN. On amd64 the whole sequence is one AVX kernel, bit-identical
// to the portable loops — the exp included, because Exp is written out as
// separately rounded operations that the kernel repeats lane by lane.
func Softmax(dst, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: softmax length mismatch")
	}
	softmax(dst, src)
}

// softmaxGeneric is the portable Softmax and the oracle for the assembly.
func softmaxGeneric(dst, src []float64) {
	mx := math.Inf(-1)
	for _, v := range src {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range src {
		e := Exp(v - mx)
		dst[i] = e
		sum += e
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

// TopKInto returns the indices of the k largest elements of v in
// descending value order. k is clamped to len(v). Selection is
// deterministic: ties break toward the lower index, and a NaN ranks below
// every number, so the result is always k distinct valid indices (all-NaN
// or all −Inf rows included). idx receives the indices (reused when its
// capacity suffices) and used is the selection bitmap (grown as needed,
// reset on entry); either may be nil. It returns both for reuse; with warm
// buffers it does not allocate.
func TopKInto(idx []int, used []bool, v []float64, k int) ([]int, []bool) {
	if k > len(v) {
		k = len(v)
	}
	if k <= 0 {
		return idx[:0], used
	}
	if cap(used) < len(v) {
		used = make([]bool, len(v))
	} else {
		used = used[:len(v)]
		for i := range used {
			used[i] = false
		}
	}
	idx = idx[:0]
	for n := 0; n < k; n++ {
		// The first unused index is the candidate to beat; a later one wins
		// only by comparing greater, or by being a number against a NaN.
		bi, best := -1, 0.0
		for i, x := range v {
			if !used[i] && (bi < 0 || x > best || (best != best && x == x)) {
				best, bi = x, i
			}
		}
		used[bi] = true
		idx = append(idx, bi)
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
		s += float64(d * d)
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

package tensor

import "math"

// PCAScratch holds PCA's working buffers, and its result, between calls.
// The zero value is ready to use.
type PCAScratch struct {
	mean, v, tmp, av []float64
	c, cov, covT     *Matrix
	comps, out       *Matrix
	mul              MulScratch
}

// PCA projects the rows of x (samples × features) onto their top k principal
// components, returning a samples × k matrix. Components are found with power
// iteration and deflation on the covariance, which is plenty for the small
// feature counts used here (expert parameter sketches).
//
// Rows are mean-centered first. k is clamped to the feature count. With a
// non-nil s every buffer, the result included, comes from s and is reused by
// its next call, so a caller running PCA every round stops allocating; a nil
// s allocates them afresh. The bits do not depend on s.
func PCA(x *Matrix, k int, g *RNG, s *PCAScratch) *Matrix {
	if s == nil {
		s = &PCAScratch{}
	}
	n, d := x.Rows, x.Cols
	if k > d {
		k = d
	}
	if k <= 0 || n == 0 {
		return NewMatrix(n, 0)
	}

	// Center.
	s.mean = growZeroed(s.mean, d)
	mean := s.mean
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	s.c = Grow(s.c, n, d)
	c := s.c
	c.CopyFrom(x)
	for i := 0; i < n; i++ {
		row := c.Row(i)
		for j := range row {
			row[j] -= mean[j]
		}
	}

	// Covariance (d×d). d is small by construction (parameter sketches).
	s.cov = Grow(s.cov, d, d)
	cov := s.cov
	MatMulTransAInto(cov, c, c)
	cov.Scale(1 / float64(max(n-1, 1)))

	s.comps = Grow(s.comps, k, d)
	comps := s.comps
	s.covT = Grow(s.covT, d, d)
	for ci := 0; ci < k; ci++ {
		// Both products below are cov·v. Deflation leaves cov symmetric in
		// value but not in bits — λ·v[i]·v[j] rounds differently from
		// λ·v[j]·v[i] — so they read an explicit transpose, taken once per
		// component, in the Axpy form: cov·v = vᵀ·covᵀ, each element still
		// one sum in ascending order from +0.
		for i := 0; i < d; i++ {
			for j, v := range cov.Row(i) {
				s.covT.Data[j*d+i] = v
			}
		}
		vec := s.powerIteration(s.covT, g)
		copy(comps.Row(ci), vec)
		// Deflate: cov -= λ v vᵀ.
		lambda := s.rayleigh(s.covT, vec)
		for i := 0; i < d; i++ {
			row := cov.Row(i)
			for j := 0; j < d; j++ {
				row[j] -= float64(lambda * vec[i] * vec[j])
			}
		}
	}

	// Project centered data.
	s.out = Grow(s.out, n, k)
	s.mul.MatMulTransBInto(s.out, c, comps)
	return s.out
}

// powerIteration finds the dominant eigenvector of the symmetric matrix
// whose transpose is at, returned in s.v.
func (s *PCAScratch) powerIteration(at *Matrix, g *RNG) []float64 {
	d := at.Rows
	if cap(s.v) < d {
		s.v, s.tmp = make([]float64, d), make([]float64, d)
	}
	v, tmp := s.v[:d], s.tmp[:d] // both fully overwritten below
	for i := range v {
		v[i] = g.Gauss(0, 1)
	}
	normalizeVec(v)
	for iter := 0; iter < 100; iter++ {
		clear(tmp)
		AxpyRows(tmp, v, at.Data, d)
		n := Norm2(tmp)
		if n < 1e-12 {
			break
		}
		var diff float64
		for i := range v {
			nv := tmp[i] / n
			diff += math.Abs(nv - v[i])
			v[i] = nv
		}
		if diff < 1e-10 {
			break
		}
	}
	return v
}

// rayleigh returns vᵀ·a·v for the matrix a whose transpose is at.
func (s *PCAScratch) rayleigh(at *Matrix, v []float64) float64 {
	s.av = growZeroed(s.av, at.Rows)
	AxpyRows(s.av, v, at.Data, at.Cols)
	return Dot(v, s.av)
}

// growZeroed returns a zeroed length-n slice, reusing buf's storage when it
// has room.
func growZeroed(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func normalizeVec(v []float64) {
	n := Norm2(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

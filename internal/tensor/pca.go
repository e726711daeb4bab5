package tensor

import "math"

// PCA projects the rows of x (samples × features) onto their top k principal
// components, returning a samples × k matrix. Components are found with power
// iteration and deflation on the covariance, which is plenty for the small
// feature counts used here (expert parameter sketches).
//
// Rows are mean-centered first. k is clamped to the feature count.
func PCA(x *Matrix, k int, g *RNG) *Matrix {
	n, d := x.Rows, x.Cols
	if k > d {
		k = d
	}
	if k <= 0 || n == 0 {
		return NewMatrix(n, 0)
	}

	// Center.
	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	c := x.Clone()
	for i := 0; i < n; i++ {
		row := c.Row(i)
		for j := range row {
			row[j] -= mean[j]
		}
	}

	// Covariance (d×d). d is small by construction (parameter sketches).
	cov := NewMatrix(d, d)
	MatMulTransAInto(cov, c, c)
	cov.Scale(1 / float64(max(n-1, 1)))

	comps := NewMatrix(k, d)
	for ci := 0; ci < k; ci++ {
		vec := powerIteration(cov, g)
		copy(comps.Row(ci), vec)
		// Deflate: cov -= λ v vᵀ.
		lambda := rayleigh(cov, vec)
		for i := 0; i < d; i++ {
			row := cov.Row(i)
			for j := 0; j < d; j++ {
				row[j] -= float64(lambda * vec[i] * vec[j])
			}
		}
	}

	// Project centered data.
	out := NewMatrix(n, k)
	MatMulTransBInto(out, c, comps)
	return out
}

// powerIteration finds the dominant eigenvector of the symmetric matrix a.
func powerIteration(a *Matrix, g *RNG) []float64 {
	d := a.Rows
	v := make([]float64, d)
	for i := range v {
		v[i] = g.Gauss(0, 1)
	}
	normalizeVec(v)
	tmp := make([]float64, d)
	for iter := 0; iter < 100; iter++ {
		DotRows(tmp, v, a.Data, d)
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

func rayleigh(a *Matrix, v []float64) float64 {
	av := make([]float64, a.Rows)
	DotRows(av, v, a.Data, a.Cols)
	return Dot(v, av)
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

// Package cluster implements K-Means clustering over expert feature vectors,
// in two flavors: the standard per-layer independent form, and the paper's
// fused cross-layer form (§5.2), which solves all layers' clustering
// problems in one assignment loop with layer-masked distances. Figure 16
// compares their costs.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Result holds a clustering assignment: Assign[i] is the cluster index of
// point i, and Centroids holds the final cluster centers.
type Result struct {
	Assign    []int
	Centroids *tensor.Matrix
	K         int
	Iters     int
}

// Groups returns the member indices of each cluster. Empty clusters yield
// empty groups.
func (r *Result) Groups() [][]int {
	out := make([][]int, r.K)
	for i, c := range r.Assign {
		out[c] = append(out[c], i)
	}
	return out
}

// KMeans clusters the rows of x into k groups using cosine distance and
// k-means++ seeding. It runs until assignments stabilize or maxIters passes.
func KMeans(x *tensor.Matrix, k, maxIters int, g *tensor.RNG) *Result {
	n := x.Rows
	if k <= 0 {
		panic("cluster: k must be positive")
	}
	if k > n {
		k = n
	}
	cents := seedPlusPlus(x, k, g)
	assign := make([]int, n)
	res := &Result{Assign: assign, Centroids: cents, K: k}
	for iter := 0; iter < maxIters; iter++ {
		res.Iters = iter + 1
		changed := false
		for i := 0; i < n; i++ {
			best, bi := math.Inf(1), 0
			for c := 0; c < k; c++ {
				d := tensor.CosineDist(x.Row(i), cents.Row(c))
				if d < best {
					best, bi = d, c
				}
			}
			if assign[i] != bi {
				assign[i] = bi
				changed = true
			}
		}
		updateCentroids(cents, x, assign, k)
		if !changed && iter > 0 {
			break
		}
	}
	return res
}

func seedPlusPlus(x *tensor.Matrix, k int, g *tensor.RNG) *tensor.Matrix {
	n, d := x.Rows, x.Cols
	cents := tensor.NewMatrix(k, d)
	first := g.Intn(n)
	copy(cents.Row(0), x.Row(first))
	dist := make([]float64, n)
	for c := 1; c < k; c++ {
		var sum float64
		for i := 0; i < n; i++ {
			best := math.Inf(1)
			for cc := 0; cc < c; cc++ {
				if dd := tensor.CosineDist(x.Row(i), cents.Row(cc)); dd < best {
					best = dd
				}
			}
			dist[i] = float64(best * best)
			sum += dist[i]
		}
		if sum == 0 {
			copy(cents.Row(c), x.Row(g.Intn(n)))
			continue
		}
		u := g.Float64() * sum
		var cum float64
		pick := n - 1
		for i, dd := range dist {
			cum += dd
			if u <= cum {
				pick = i
				break
			}
		}
		copy(cents.Row(c), x.Row(pick))
	}
	return cents
}

func updateCentroids(cents, x *tensor.Matrix, assign []int, k int) {
	counts := make([]int, k)
	cents.Zero()
	for i, c := range assign {
		counts[c]++
		crow := cents.Row(c)
		for j, v := range x.Row(i) {
			crow[j] += v
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		row := cents.Row(c)
		inv := 1 / float64(counts[c])
		for j := range row {
			row[j] *= inv
		}
	}
}

// LayerPoint identifies one expert's feature vector in the fused problem.
type LayerPoint struct {
	Layer  int
	Expert int // original expert index within its layer
}

// FusedResult maps each layer to its clustering groups (original expert
// index lists).
type FusedResult struct {
	GroupsByLayer [][][]int
	Iters         int
}

// FusedKMeans solves all per-layer clustering problems in a single K-Means
// run, as in §5.2: ΣB_l centroids are created, each labeled with its layer,
// and an expert may only be assigned to a centroid of its own layer
// (cross-layer distances are treated as infinite). This eliminates repeated
// per-layer initialization and assignment passes; Figure 16 measures the
// resulting speedup over per-layer independent clustering.
//
// feats holds one row per point; points[i] labels row i; budget[l] is the
// number of clusters for layer l. Layers with no points get empty groups.
func FusedKMeans(feats *tensor.Matrix, points []LayerPoint, budget []int, maxIters int, g *tensor.RNG) (*FusedResult, error) {
	if feats.Rows != len(points) {
		return nil, fmt.Errorf("cluster: %d rows for %d points", feats.Rows, len(points))
	}
	L := len(budget)
	// Index points per layer.
	byLayer := make([][]int, L)
	for i, p := range points {
		if p.Layer < 0 || p.Layer >= L {
			return nil, fmt.Errorf("cluster: point layer %d out of range", p.Layer)
		}
		byLayer[p.Layer] = append(byLayer[p.Layer], i)
	}

	// Global centroid table with layer labels.
	type centroid struct {
		layer int
		row   int
	}
	var cents []centroid
	totalK := 0
	for l, b := range budget {
		n := len(byLayer[l])
		if b > n {
			b = n
		}
		for c := 0; c < b; c++ {
			cents = append(cents, centroid{layer: l, row: totalK})
			totalK++
		}
		budget[l] = b
	}
	centMat := tensor.NewMatrix(totalK, feats.Cols)
	// Seed: spread within each layer (every stride-th point).
	ci := 0
	for l, b := range budget {
		pts := byLayer[l]
		for c := 0; c < b; c++ {
			src := pts[(c*len(pts))/maxInt(b, 1)]
			copy(centMat.Row(ci), feats.Row(src))
			ci++
		}
	}

	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}
	res := &FusedResult{}
	nonNeg := make([]int, len(points))
	for iter := 0; iter < maxIters; iter++ {
		res.Iters = iter + 1
		changed := false
		// Single assignment pass over all points and all centroids, with
		// cross-layer pairs masked out.
		for i, p := range points {
			best, bi := math.Inf(1), -1
			for c, cent := range cents {
				if cent.layer != p.Layer {
					continue
				}
				d := tensor.CosineDist(feats.Row(i), centMat.Row(c))
				if d < best {
					best, bi = d, c
				}
			}
			if bi >= 0 && assign[i] != bi {
				assign[i] = bi
				changed = true
			}
		}
		updateCentroids(centMat, feats, assignNoNeg(nonNeg, assign), totalK)
		if !changed && iter > 0 {
			break
		}
	}

	// Convert global assignment to per-layer groups of original expert ids.
	res.GroupsByLayer = make([][][]int, L)
	centBase := make([]int, L)
	base := 0
	for l, b := range budget {
		centBase[l] = base
		res.GroupsByLayer[l] = make([][]int, b)
		base += b
	}
	for i, p := range points {
		if assign[i] < 0 {
			continue
		}
		local := assign[i] - centBase[p.Layer]
		res.GroupsByLayer[p.Layer][local] = append(res.GroupsByLayer[p.Layer][local], p.Expert)
	}
	return res, nil
}

// assignNoNeg writes assign into out with unassigned points (−1) at
// cluster 0, and returns out.
func assignNoNeg(out, assign []int) []int {
	for i, a := range assign {
		if a < 0 {
			a = 0
		}
		out[i] = a
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PerLayerKMeans is the ablation baseline for Figure 16: each layer's
// experts are clustered independently with a fresh K-Means run.
func PerLayerKMeans(feats *tensor.Matrix, points []LayerPoint, budget []int, maxIters int, g *tensor.RNG) (*FusedResult, error) {
	L := len(budget)
	byLayer := make([][]int, L)
	for i, p := range points {
		if p.Layer < 0 || p.Layer >= L {
			return nil, fmt.Errorf("cluster: point layer %d out of range", p.Layer)
		}
		byLayer[p.Layer] = append(byLayer[p.Layer], i)
	}
	res := &FusedResult{GroupsByLayer: make([][][]int, L)}
	for l, b := range budget {
		pts := byLayer[l]
		if len(pts) == 0 || b == 0 {
			continue
		}
		sub := tensor.NewMatrix(len(pts), feats.Cols)
		for i, pi := range pts {
			copy(sub.Row(i), feats.Row(pi))
		}
		r := KMeans(sub, b, maxIters, g.Split(fmt.Sprintf("layer%d", l)))
		res.Iters += r.Iters
		groups := r.Groups()
		out := make([][]int, len(groups))
		for c, members := range groups {
			for _, mi := range members {
				out[c] = append(out[c], points[pts[mi]].Expert)
			}
		}
		res.GroupsByLayer[l] = out
	}
	return res, nil
}

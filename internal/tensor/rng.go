// Package tensor provides the dense linear-algebra substrate used by the
// rest of the repository: matrices, vectors, elementwise kernels, reductions,
// PCA, and deterministic random number generation.
//
// Everything is float64 and row-major. The package is deliberately small and
// allocation-conscious: the MoE models in this repo are tiny, and
// determinism matters more than throughput. The one exception is the vector
// kernels (axpy.go), which have AVX and AVX-512 forms on amd64 that are
// bit-identical to the portable loops.
//
// Every multiply-add in the package is written s += float64(a*b): the
// conversion rounds the product, which forbids the compiler to fuse it into
// the add (it does on arm64, ppc64 and s390x) and changes nothing on amd64,
// where the goldens are pinned.
package tensor

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a deterministic random stream. Every source of randomness in the
// repository is an RNG derived from a named seed so that experiments are
// reproducible bit-for-bit and sub-streams can be split without coupling
// consumption order across modules.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded directly with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Named derives a stream from a string label, e.g. "figure10/dolly/flux".
// The same label always yields the same stream.
func Named(label string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(label))
	return NewRNG(int64(h.Sum64()))
}

// Split derives an independent child stream. The parent advances by one
// draw; the child is seeded from that draw, so repeated Splits yield
// distinct, reproducible streams.
func (g *RNG) Split(label string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(label))
	mix := int64(h.Sum64()) ^ g.r.Int63()
	return NewRNG(mix)
}

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Norm returns a standard normal draw.
func (g *RNG) Norm() float64 { return g.r.NormFloat64() }

// Gauss returns a normal draw with the given mean and standard deviation.
func (g *RNG) Gauss(mean, std float64) float64 { return mean + float64(std*g.r.NormFloat64()) }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Zipf draws from a Zipf-like distribution over [0,n) with exponent s>1.
// Lower indices are more likely. Used to generate skewed token vocabularies.
func (g *RNG) Zipf(n int, s float64) int {
	// Inverse-CDF sampling over the (finite) generalized harmonic series.
	// n is small (vocabulary sizes), so linear scan is fine.
	if n <= 1 {
		return 0
	}
	var total float64
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k), s)
	}
	u := g.Float64() * total
	var cum float64
	for k := 1; k <= n; k++ {
		cum += 1 / math.Pow(float64(k), s)
		if u <= cum {
			return k - 1
		}
	}
	return n - 1
}

// Dirichlet draws a point from a symmetric Dirichlet distribution with
// concentration alpha over dim categories. Used for non-IID data partitioning.
func (g *RNG) Dirichlet(alpha float64, dim int) []float64 {
	out := make([]float64, dim)
	var sum float64
	for i := range out {
		out[i] = g.gamma(alpha)
		sum += out[i]
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(dim)
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// gamma draws from Gamma(alpha, 1) using Marsaglia–Tsang, with the standard
// boost for alpha < 1.
func (g *RNG) gamma(alpha float64) float64 {
	if alpha < 1 {
		u := g.Float64()
		for u == 0 {
			u = g.Float64()
		}
		return g.gamma(alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := g.Norm()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v) // the compiler would fuse this product into 1-v below
		u := g.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}

package moe

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// Forward computes the expert output for a single token vector x, storing
// the ReLU output in hidden (length FFNDim) and the output in out (length
// Dim): hidden = ReLU(x·W1 + b1) as one AxpyRows from the bias, then out =
// hidden·W2 + b2 as one AxpyNonzeroRows from the bias, over the open units
// only.
//
// It is the per-token expert forward Layer.moeBlock ran before it took each
// expert's routed tokens together (Expert.forwardRows), and the oracle of
// that form: perTokenExperts makes one call per routed token.
func (e *Expert) Forward(x, hidden, out []float64) {
	ffn := len(e.B1)
	dim := len(e.B2)
	hidden = hidden[:ffn]
	copy(hidden, e.B1)
	tensor.AxpyRows(hidden, x, e.W1.Data, ffn)
	tensor.ReLU(hidden)
	out = out[:dim]
	copy(out, e.B2)
	tensor.AxpyNonzeroRows(out, hidden, e.W2.Data, dim)
}

// perTokenExperts is runExperts's oracle: c.x1 plus, on rows [lo, hi), one
// Expert.Forward per routed slot in token order, each output added into
// its row in slot order. It returns the output and every slot's hidden
// activations, nil for the slots of the other rows.
func perTokenExperts(l *Layer, c *layerCache, lo, hi int) (*tensor.Matrix, [][]float64) {
	T, D := c.x1.Rows, c.x1.Cols
	out := tensor.NewMatrix(T, D)
	out.CopyFrom(c.x1)
	hidden := make([][]float64, T*c.slots)
	eOut := make([]float64, D)
	for t := lo; t < hi; t++ {
		i, experts := c.routes(t)
		for s, ei := range experts {
			ex := l.Experts[ei]
			hidden[i+s] = make([]float64, len(ex.B1))
			ex.Forward(c.xMid.Row(t), hidden[i+s], eOut)
			tensor.Axpy(c.routedWeights[i+s], eOut, out.Row(t))
		}
	}
	return out, hidden
}

// checkExperts holds c.out, and the hidden activations of every slot of
// rows [lo, hi), to perTokenExperts bit for bit, any NaN matching any NaN:
// which payload survives where two NaNs meet is outside the kernels'
// contract.
func checkExperts(t *testing.T, where string, l *Layer, c *layerCache, lo, hi int) {
	t.Helper()
	want, hidden := perTokenExperts(l, c, lo, hi)
	if !sameBitsOrNaN(c.out.Data, want.Data) {
		t.Fatalf("%s: the output's bits differ from one Expert.Forward per routed token", where)
	}
	for i, h := range hidden {
		if h != nil && !sameBitsOrNaN(c.hiddenAt(i)[:len(h)], h) {
			t.Fatalf("%s: slot %d's hidden activations differ from Expert.Forward's", where, i)
		}
	}
}

// TestMoEForwardByExpertBitIdentity holds the MoE block, which runs each
// expert over all of its routed tokens at once (runExperts), to one
// Expert.Forward per routed token, bit for bit: the layer output on every
// row and the hidden activations backward reads. It covers both stand-ins'
// shapes at top-1, top-2 and top-3 routing; merged routing, two original
// indices onto one expert, so that tokens route to fewer experts than TopK;
// frozen, trainable and mixed experts, and experts whose weights hold NaN,
// ±Inf and −0 entries, where a term out of place or a +0·w added for a
// closed unit would show in the bits; the experts on every row and on a
// trimmed span [lo, hi) that leaves rows out at both ends; routing set so
// that the experts take 0–7 tokens each — none, whole blocks of four and
// one to three left over; sequences of 1, 6 and 13 rows; and extend's rows,
// one and three a step. One workspace serves every case, so buffers a
// larger case grew are stale in the next.
func TestMoEForwardByExpertBitIdentity(t *testing.T) {
	ws := NewWorkspace()
	for _, cfg := range []Config{SimConfigLLaMATrain(), SimConfigDeepSeekTrain()} {
		for _, topK := range []int{1, 2, 3} {
			const experts = 8
			g := tensor.NewRNG(int64(59 + topK))
			base := NewLayer(cfg.Dim, cfg.FFNDim, experts+1, topK, g)
			base.Experts = base.Experts[:experts]
			base.Routing[experts] = 2 // the last original index merged into expert 2
			special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
			for _, frozen := range []string{"trainable", "frozen", "mixed", "non-finite"} {
				l := base.Clone()
				for e, ex := range l.Experts {
					ex.Frozen = frozen == "frozen" || (frozen == "mixed" && e%3 == 1)
					if frozen == "non-finite" {
						ex.B2[e%cfg.Dim] = special[e%len(special)]
						ex.W1.Data[(7*e)%len(ex.W1.Data)] = special[(e+1)%len(special)]
						ex.B1[e] = math.Copysign(0, -1)
					}
				}
				name := fmt.Sprintf("%s/top%d/%s", cfg.Name, topK, frozen)
				t.Run(name, func(t *testing.T) {
					for _, T := range []int{1, 6, 13} {
						for _, span := range [][2]int{{0, T}, {min(2, T), max(T-1, min(2, T))}} {
							lo, hi := span[0], span[1]
							c := &layerCache{}
							x := tensor.NewMatrix(T, cfg.Dim)
							x.RandInit(g, 1)
							l.Forward(0, x, c, ws, nil, -1, lo, hi)
							checkExperts(t, fmt.Sprintf("%d rows, experts on [%d, %d)", T, lo, hi), l, c, lo, hi)
						}
					}

					// Every expert count 0–7: 28 routed tokens.
					counts := []int{3, 0, 7, 1, 5, 2, 6, 4}
					per := make([]int, 0, 28)
					for n := 28; n > 0; n -= min(topK, 2) {
						per = append(per, min(topK, 2, n))
					}
					T := len(per)
					for _, span := range [][2]int{{0, T}, {3, T - 2}} {
						lo, hi := span[0], span[1]
						c := &layerCache{}
						x := tensor.NewMatrix(T, cfg.Dim)
						x.RandInit(g, 1)
						l.Forward(0, x, c, ws, nil, -1, 0, T)
						if !routeCounts(c, counts, per, g) {
							t.Fatal("could not place the routing counts")
						}
						l.runExperts(c, ws, lo, hi)
						checkExperts(t, fmt.Sprintf("counts %v, experts on [%d, %d)", counts, lo, hi), l, c, lo, hi)
					}

					// extend: the new rows of each step are the whole block.
					for _, step := range []int{1, 3} {
						const n = 10
						x := tensor.NewMatrix(n, cfg.Dim)
						x.RandInit(g, 1)
						ws.resetDecode(1, n, cfg.Dim)
						c := &layerCache{}
						for p := 0; p < n; p += step {
							rows := min(step, n-p)
							l.extend(rowMatrix(x, p, rows), p, &ws.kv[0], c, ws)
							checkExperts(t, fmt.Sprintf("extend by %d at position %d", step, p), l, c, 0, rows)
						}
					}
				})
			}
		}
	}
}

// sameBitsOrNaN is sameBits with any NaN matching any NaN.
func sameBitsOrNaN(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return false
		}
	}
	return true
}

// rowMatrix is a copy of rows [from, from+n) of m.
func rowMatrix(m *tensor.Matrix, from, n int) *tensor.Matrix {
	r := tensor.NewMatrix(n, m.Cols)
	copy(r.Data, m.Data[from*m.Cols:(from+n)*m.Cols])
	return r
}

package quant

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randMat(seed int64, rows, cols int) *tensor.Matrix {
	g := tensor.NewRNG(seed)
	m := tensor.NewMatrix(rows, cols)
	m.RandInit(g, 1)
	return m
}

// roundTrip is m's b-bit reconstruction in a fresh matrix.
func roundTrip(m *tensor.Matrix, b Bits) *tensor.Matrix {
	rt := m.Clone()
	RoundTripInPlace(rt, b)
	return rt
}

// relError is the mean absolute reconstruction error of quantizing m at b
// bits, relative to the mean absolute weight.
func relError(m *tensor.Matrix, b Bits) float64 {
	rt := roundTrip(m, b)
	var errSum, magSum float64
	for i, v := range m.Data {
		errSum += math.Abs(v - rt.Data[i])
		magSum += math.Abs(v)
	}
	if magSum == 0 {
		return 0
	}
	return errSum / magSum
}

func TestBitsValid(t *testing.T) {
	for _, b := range []Bits{Bits2, Bits4, Bits8} {
		if !b.Valid() {
			t.Fatalf("%v should be valid", b)
		}
	}
	if Bits(3).Valid() || Bits(0).Valid() {
		t.Fatal("3 and 0 bits should be invalid")
	}
}

func TestLevels(t *testing.T) {
	if Bits2.Levels() != 1 || Bits4.Levels() != 7 || Bits8.Levels() != 127 {
		t.Fatalf("levels: %d %d %d", Bits2.Levels(), Bits4.Levels(), Bits8.Levels())
	}
}

func TestRoundTripBounded(t *testing.T) {
	m := randMat(1, 8, 16)
	for _, b := range []Bits{Bits2, Bits4, Bits8} {
		rt := roundTrip(m, b)
		for i := 0; i < m.Rows; i++ {
			// Per-row error bounded by half a quantization step.
			var mx float64
			for _, v := range m.Row(i) {
				if a := math.Abs(v); a > mx {
					mx = a
				}
			}
			step := mx / float64(b.Levels())
			for j, v := range m.Row(i) {
				if d := math.Abs(v - rt.At(i, j)); d > step/2+1e-9 {
					t.Fatalf("%v: error %v exceeds half step %v", b, d, step/2)
				}
			}
		}
	}
}

func TestMoreBitsLessError(t *testing.T) {
	m := randMat(2, 32, 64)
	e2, e4, e8 := relError(m, Bits2), relError(m, Bits4), relError(m, Bits8)
	if !(e2 > e4 && e4 > e8) {
		t.Fatalf("error should decrease with bits: %v %v %v", e2, e4, e8)
	}
	if e8 > 0.05 {
		t.Fatalf("8-bit error suspiciously large: %v", e8)
	}
}

func TestQuantizeZeroMatrix(t *testing.T) {
	m := tensor.NewMatrix(4, 4)
	rt := roundTrip(m, Bits4)
	for _, v := range rt.Data {
		if v != 0 {
			t.Fatal("zero matrix should round-trip to zero")
		}
	}
	if relError(m, Bits4) != 0 {
		t.Fatal("zero matrix error should be 0")
	}
}

func TestQuantizeInvalidBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantize(tensor.NewMatrix(1, 1), Bits(5))
}

func TestCodesWithinRange(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		clean := make([]float64, len(vals))
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			clean[i] = math.Mod(v, 1e6)
		}
		m := tensor.FromSlice(1, len(clean), clean)
		for _, b := range []Bits{Bits2, Bits4, Bits8} {
			q := Quantize(m, b)
			lv := int8(b.Levels())
			for _, c := range q.Codes {
				if c < -lv || c > lv {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripInPlaceBitIdentity pins the fused in-place round-trip bit for
// bit against the allocating Quantize→Dequantize path, including a -0.0
// entry, an all-zero row (where Dequantize normalizes -0.0 to +0.0), and
// values far beyond the clamp range.
func TestRoundTripInPlaceBitIdentity(t *testing.T) {
	for _, b := range []Bits{Bits2, Bits4, Bits8} {
		m := randMat(7, 9, 13)
		m.Data[0] = math.Copysign(0, -1)
		m.Data[5] = 1e9 // clamps to the top level
		for j := 0; j < m.Cols; j++ {
			m.Data[3*m.Cols+j] = math.Copysign(0, -1) // all-(-0.0) row
		}
		want := Quantize(m, b).Dequantize()
		got := m.Clone()
		RoundTripInPlace(got, b)
		for i, w := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
				t.Fatalf("%v: element %d: in-place %v != round-trip %v", b, i, got.Data[i], w)
			}
		}
	}
}

func TestDequantizePreservesSign(t *testing.T) {
	m := tensor.FromSlice(1, 4, []float64{-1, -0.5, 0.5, 1})
	rt := Quantize(m, Bits8).Dequantize()
	for i, v := range m.Data {
		if v*rt.Data[i] < 0 {
			t.Fatalf("sign flipped at %d: %v -> %v", i, v, rt.Data[i])
		}
	}
}

// Package quant implements symmetric uniform weight quantization at 2/4/8
// bits, the mechanism behind Flux's quantization-based local profiling (§4.1
// of the paper) and the FMQ baseline.
//
// Quantization here is functional, not just simulated: weights are actually
// rounded to the integer grid and dequantized, so a forward pass through a
// quantized model experiences real rounding error. That error is what makes
// low-bit profiling cheaper-but-noisier, reproducing Figure 5's error-vs-bit
// trend, and what destabilizes FMQ's fine-tuning in Figures 10–11.
package quant

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Bits is a supported quantization precision.
type Bits int

// Supported precisions.
const (
	Bits2 Bits = 2
	Bits4 Bits = 4
	Bits8 Bits = 8
)

// Valid reports whether b is a supported precision.
func (b Bits) Valid() bool { return b == Bits2 || b == Bits4 || b == Bits8 }

// Levels returns the number of representable non-negative magnitudes
// (half the signed grid), e.g. 7 for 4-bit symmetric quantization.
func (b Bits) Levels() int { return (1 << (int(b) - 1)) - 1 }

func (b Bits) String() string { return fmt.Sprintf("bit-%d", int(b)) }

// QuantizedMatrix stores a per-row symmetrically quantized matrix: int8
// codes plus one float scale per row. Row granularity matches the common
// per-output-channel scheme used by real MoE quantizers.
type QuantizedMatrix struct {
	Rows, Cols int
	Codes      []int8
	Scales     []float64
	Bits       Bits
}

// Quantize converts m to b-bit symmetric codes with per-row scales. Together
// with Dequantize it is the reference form of the round trip that
// RoundTripInPlace fuses, and what tests compare it against.
func Quantize(m *tensor.Matrix, b Bits) *QuantizedMatrix {
	if !b.Valid() {
		panic(fmt.Sprintf("quant: unsupported bit width %d", b))
	}
	q := &QuantizedMatrix{
		Rows:   m.Rows,
		Cols:   m.Cols,
		Codes:  make([]int8, m.Rows*m.Cols),
		Scales: make([]float64, m.Rows),
		Bits:   b,
	}
	levels := float64(b.Levels())
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var mx float64
		for _, v := range row {
			if a := math.Abs(v); a > mx {
				mx = a
			}
		}
		scale := mx / levels
		q.Scales[i] = scale
		if scale == 0 {
			continue
		}
		for j, v := range row {
			c := math.Round(v / scale)
			c = tensor.Clamp(c, -levels, levels)
			q.Codes[i*m.Cols+j] = int8(c)
		}
	}
	return q
}

// Dequantize reconstructs the float matrix from codes and scales.
func (q *QuantizedMatrix) Dequantize() *tensor.Matrix {
	out := tensor.NewMatrix(q.Rows, q.Cols)
	for i := 0; i < q.Rows; i++ {
		s := q.Scales[i]
		row := out.Row(i)
		for j := range row {
			row[j] = float64(q.Codes[i*q.Cols+j]) * s
		}
	}
	return out
}

// RoundTripInPlace overwrites m with its b-bit round-trip reconstruction
// without materializing the code matrix: each element becomes
// Round(v/scale), clamped to the grid, times the per-row scale — bit for bit
// the value Quantize followed by Dequantize produces (codes fit exactly in
// the int8 grid, so the integer conversion is value-preserving;
// TestRoundTripInPlaceBitIdentity). This is how the rest of the repo perturbs
// a model "as if" it were running at reduced precision: the profiling path
// and FMQ re-quantize scratch-held models every round or step, in one pass
// with zero allocations.
func RoundTripInPlace(m *tensor.Matrix, b Bits) {
	if !b.Valid() {
		panic(fmt.Sprintf("quant: unsupported bit width %d", b))
	}
	levels := float64(b.Levels())
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var mx float64
		for _, v := range row {
			if a := math.Abs(v); a > mx {
				mx = a
			}
		}
		scale := mx / levels
		if scale == 0 {
			// Dequantize writes +0.0 for untouched codes; an all-zero row may
			// hold -0.0 entries, so overwrite rather than skip.
			for j := range row {
				row[j] = 0
			}
			continue
		}
		for j, v := range row {
			c := tensor.Clamp(math.Round(v/scale), -levels, levels)
			if c == 0 {
				// Round(-0/scale) is -0.0, but the int8 code is +0 and
				// dequantizes to +0.0.
				row[j] = 0
				continue
			}
			row[j] = c * scale
		}
	}
}

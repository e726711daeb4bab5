//go:build amd64 && !purego

package tensor

import (
	"fmt"
	"testing"
)

// The tests below pin the assembly kernels to the portable loops bit for bit
// over the full property grids of axpy_test.go. They call the assembly
// directly, so they can only run where the CPU and OS support AVX; elsewhere
// the portable kernels run, and the *PortableBitIdentity tests cover them.
// The AVX-512 forms run the same grids; they can only run where the CPU and
// OS support AVX-512F, and are skipped, saying so, everywhere else.

func TestAxpyAVXBitIdentity(t *testing.T) {
	t.Logf("AVX detected: %v", useAVX)
	if !useAVX {
		t.Skip("no AVX on this machine")
	}
	checkAxpy(t, axpyAVX, axpyGeneric)
	checkAxpyRows(t, axpyRowsAVX, axpyRowsGeneric)
}

func TestDotRows4AVXBitIdentity(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this machine")
	}
	checkDotRows4(t, dotRows4AVX, dotRows4Generic)
}

func TestAxpyNonzeroRowsAVXBitIdentity(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this machine")
	}
	checkRows(t, axpyNonzeroRowsAVX, axpyNonzeroRowsGeneric)
	checkNonzeroChunks(t, false, axpyNonzeroRowsAVX, axpyNonzeroRowsGeneric)
}

func TestOuterRowsAVXBitIdentity(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this machine")
	}
	checkOuter(t, outerRowsAVX, outerRowsGeneric)
	checkOuter(t, outerNonzeroRowsAVX, outerNonzeroRowsGeneric)
	checkNonzeroChunks(t, true, outerNonzeroRowsAVX, outerNonzeroRowsGeneric)
}

func TestReLUAVXBitIdentity(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this machine")
	}
	checkReLU(t, reluAVX, reluGeneric)
}

func TestSoftmaxAVXBitIdentity(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this machine")
	}
	checkSoftmax(t, softmaxAVX, softmaxGeneric)
}

// TestAVX512BitIdentity pins the 512-bit Axpy-form and rank-1 kernels to
// the portable loops over the same grids as the AVX ones — every output
// width 0–130, so every panel and every masked width 1–7 of its last
// register — and across the 64-row chunk edges of the zero-skipping
// kernels' masks.
func TestAVX512BitIdentity(t *testing.T) {
	t.Logf("AVX-512 detected: %v", useAVX512)
	if !useAVX512 {
		t.Skip("no AVX-512F on this machine: the 512-bit kernels were not run")
	}
	checkAxpyRows(t, axpyRowsAVX512, axpyRowsGeneric)
	checkRows(t, axpyNonzeroRowsAVX512, axpyNonzeroRowsGeneric)
	checkNonzeroChunks(t, false, axpyNonzeroRowsAVX512, axpyNonzeroRowsGeneric)
	checkOuter(t, outerRowsAVX512, outerRowsGeneric)
	checkOuter(t, outerNonzeroRowsAVX512, outerNonzeroRowsGeneric)
	checkNonzeroChunks(t, true, outerNonzeroRowsAVX512, outerNonzeroRowsGeneric)
}

// TestAVX512SoftmaxRowsBitIdentity pins the eight-row softmax kernel, called
// on every row of every case, to one portable Softmax per row.
func TestAVX512SoftmaxRowsBitIdentity(t *testing.T) {
	t.Logf("AVX-512 detected: %v", useAVX512)
	if !useAVX512 {
		t.Skip("no AVX-512F on this machine: the 512-bit kernels were not run")
	}
	checkSoftmaxRows(t, func(m *Matrix, lo int) { softmaxRowsAVX512(m.Data, m.Rows, m.Cols, lo) })
}

// BenchmarkSoftmaxRowsCrossover times one block of 1–8 rows through the
// eight-row kernel and through Softmax row by row, at the gate's width and
// as the last rows of a causal matrix of 22 positions: the row count at
// which the kernel starts to win is softmaxRowsMin.
func BenchmarkSoftmaxRowsCrossover(b *testing.B) {
	if !useAVX512 {
		b.Skip("no AVX-512F on this machine")
	}
	for _, sh := range []struct {
		name     string
		cols, lo int
	}{{"gate=8", 8, 8}, {"gate=16", 16, 16}, {"causal=22", 22, 14}} {
		for rows := 1; rows <= 8; rows++ {
			g := NewRNG(8)
			m := NewMatrix(rows, sh.cols)
			for i := range m.Data {
				m.Data[i] = 2 * g.Norm()
			}
			b.Run(fmt.Sprintf("%s/rows=%d/kernel=rows", sh.name, rows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					softmaxRowsAVX512(m.Data, rows, sh.cols, sh.lo)
				}
			})
			b.Run(fmt.Sprintf("%s/rows=%d/kernel=each", sh.name, rows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					softmaxEachRow(m, sh.lo, 0)
				}
			})
		}
	}
}

// TestAVX512MatMulRows4BitIdentity pins MatMulInto's four-row tier, both
// its row-major and its transposed store, to one portable AxpyRows per row.
func TestAVX512MatMulRows4BitIdentity(t *testing.T) {
	t.Logf("AVX-512 detected: %v", useAVX512)
	if !useAVX512 {
		t.Skip("no AVX-512F on this machine: the 512-bit kernels were not run")
	}
	if done := mulRows4(make([]float64, 4*8), make([]float64, 4*3), make([]float64, 3*8), nil, 5, 3, 8, 3, 8, 8, false); done != 4 {
		t.Fatalf("the four-row tier took %d of 5 rows", done)
	}
	checkMatMulRows(t)
}

// TestAVX512MulRows4BitIdentity pins the four-row kernel itself, called on
// whole groups of four, to one portable AxpyRows per row over
// checkMulRows's grid: every output width 1–72, each stride at its row
// length and longer, both bias modes and both stores.
func TestAVX512MulRows4BitIdentity(t *testing.T) {
	t.Logf("AVX-512 detected: %v", useAVX512)
	if !useAVX512 {
		t.Skip("no AVX-512F on this machine: the 512-bit kernels were not run")
	}
	checkMulRows(t, []int{4, 8}, true, mulRows4AVX512)
}

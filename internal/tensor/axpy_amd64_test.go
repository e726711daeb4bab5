//go:build amd64 && !purego

package tensor

import "testing"

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

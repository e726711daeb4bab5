//go:build amd64 && !purego

package tensor

import "testing"

// The tests below pin the assembly kernels to the portable loops bit for bit
// over the full property grids of axpy_test.go. They call the assembly
// directly, so they can only run where the CPU and OS support AVX; elsewhere
// the portable kernels run, and the *PortableBitIdentity tests cover them.

func TestAxpyAVXBitIdentity(t *testing.T) {
	t.Logf("AVX detected: %v", useAVX)
	if !useAVX {
		t.Skip("no AVX on this machine")
	}
	checkAxpy(t, axpyAVX, axpyGeneric)
	checkAxpyRows(t, axpyRowsAVX, axpyRowsGeneric)
}

func TestDotRowsAVXBitIdentity(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this machine")
	}
	checkRows(t, true, false, dotRowsAVX, dotRowsGeneric)
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
	checkRows(t, false, true, axpyNonzeroRowsAVX, axpyNonzeroRowsGeneric)
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

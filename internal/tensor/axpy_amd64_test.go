//go:build amd64 && !purego

package tensor

import "testing"

// TestAxpyAVXBitIdentity pins the assembly kernels to the portable loops bit
// for bit over the full property grid of axpy_test.go. It calls the assembly
// directly, so it can only run where the CPU and OS support AVX.
func TestAxpyAVXBitIdentity(t *testing.T) {
	t.Logf("AVX detected: %v", useAVX)
	if !useAVX {
		t.Skip("no AVX on this machine: the portable kernels run, and TestAxpyPortableBitIdentity covers them")
	}
	checkAxpy(t, axpyAVX, axpyGeneric)
	checkAxpyRows(t, axpyRowsAVX, axpyRowsGeneric)
}

//go:build !purego

package tensor

import (
	"fmt"
	"syscall"
	"testing"
	"unsafe"
)

// TestAVX512MaskedLanesCannotFault puts each operand of the 512-bit kernels
// in turn — the one written, x, and the one only read — flush against an
// inaccessible page, so a masked-off lane that touched memory past the end
// of its slice would crash the test. Every output width 1–72 runs, over
// three rows with the middle one zero, checked against the portable loop
// bit for bit.
func TestAVX512MaskedLanesCannotFault(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX-512F on this machine: the 512-bit kernels were not run")
	}
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	guarded := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), page/8)
	// atGuard copies v into the elements that end at the guard page.
	atGuard := func(v []float64) []float64 {
		return append(guarded[:len(guarded)-len(v)], v...)[len(guarded)-len(v):]
	}
	kernels := []struct {
		name      string
		outer     bool
		got, want func(a, x, b []float64, stride int)
	}{
		{"AxpyRows", false, axpyRowsAVX512, axpyRowsGeneric},
		{"AxpyNonzeroRows", false, axpyNonzeroRowsAVX512, axpyNonzeroRowsGeneric},
		{"OuterRows", true, outerRowsAVX512, outerRowsGeneric},
		{"OuterNonzeroRows", true, outerNonzeroRowsAVX512, outerNonzeroRowsGeneric},
	}
	const rows = 3
	g := NewRNG(53)
	for n := 1; n <= 72; n++ {
		for _, k := range kernels {
			x := []float64{g.Norm(), 0, g.Norm()}
			vec, mat := make([]float64, n), make([]float64, rows*n)
			mixedFill(g, vec)
			mixedFill(g, mat)
			a0, b0 := vec, mat // the operand written and the one read
			if k.outer {
				a0, b0 = mat, vec
			}
			want := append([]float64(nil), a0...)
			k.want(want, x, b0, n)
			for _, place := range []string{"written", "x", "read"} {
				a, xs, b := append([]float64(nil), a0...), x, b0
				switch place {
				case "written":
					a = atGuard(a0)
				case "x":
					xs = atGuard(x)
				case "read":
					b = atGuard(b0)
				}
				k.got(a, xs, b, n)
				sameBits(t, fmt.Sprintf("%s, width %d, %s operand at the guard page", k.name, n, place), a, want)
			}
		}
	}
}

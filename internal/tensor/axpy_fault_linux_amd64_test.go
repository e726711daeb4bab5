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
// bit for bit. The eight-row softmax then runs with its last row's last
// live element flush against the page, the rest of that row beyond it, at
// widths 1–72 and row offsets that leave the last row short and whole; and
// the four-row matmul with each of its operands, the bias included, at the
// page, at every output width 1–72, each operand at its row length and at
// a longer stride, both stores.
func TestAVX512MaskedLanesCannotFault(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX-512F on this machine: the 512-bit kernels were not run")
	}
	// Two accessible pages, room for a 9×72 matrix, then the guard page.
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[2*page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	guarded := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), 2*page/8)
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

	for cols := 1; cols <= 72; cols++ {
		for _, rows := range []int{1, 7, 8, 9} {
			for _, lo := range []int{0, cols / 2, cols} {
				m := NewMatrix(rows, cols)
				softmaxFill(g, m.Data, cols%5)
				want := m.Clone()
				softmaxRowsOracle(want, lo)
				live := (rows-1)*cols + min(lo+rows, cols)
				data := atGuard(m.Data[:live])
				softmaxRowsAVX512(data, rows, cols, lo)
				sameBits(t, fmt.Sprintf("SoftmaxRows, %dx%d, lo %d, last live element at the guard page", rows, cols, lo), data, want.Data[:live])
			}
		}
	}

	for n := 1; n <= 72; n++ {
		for _, k := range []int{1, 3} {
			for _, pad := range []int{0, 3} {
				for _, trans := range []bool{false, true} {
					const rows = 8
					xs, wst, ys := k+pad, n+pad, n+pad
					if trans {
						ys = rows + pad
					}
					// The operands end at their last row's last element, as
					// far as the kernel may read or write.
					x, w, bias := make([]float64, (rows-1)*xs+k), make([]float64, (k-1)*wst+n), make([]float64, n)
					mixedFill(g, x)
					mixedFill(g, w)
					mixedFill(g, bias)
					size := (rows-1)*ys + n
					if trans {
						size = (n-1)*ys + rows
					}
					want := make([]float64, size)
					mulRowsOracle(want, x, w, bias, rows, k, n, xs, wst, ys, trans)
					for _, place := range []string{"written", "x", "read", "bias"} {
						y, xg, wg, bg := make([]float64, size), x, w, bias
						switch place {
						case "written":
							y = atGuard(y)
						case "x":
							xg = atGuard(x)
						case "read":
							wg = atGuard(w)
						case "bias":
							bg = atGuard(bias)
						}
						mulRows4AVX512(y, xg, wg, bg, rows, k, n, xs, wst, ys, trans)
						what := fmt.Sprintf("mulRows4, width %d, k %d, strides %d/%d/%d, transposed %v, %s operand at the guard page", n, k, xs, wst, ys, trans, place)
						sameBits(t, what, y, want)
					}
				}
			}
		}
	}
}

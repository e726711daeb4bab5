package codec

import (
	"bufio"
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// floatSpecials are the values whose bits a float sequence must carry
// unchanged: quiet and signalling NaNs of either sign with payloads, both
// zeros, both infinities, subnormals of either sign and the extremes.
var floatSpecials = []float64{
	math.Float64frombits(0x7ff8000000000123), // quiet NaN
	math.Float64frombits(0xfff8000000000456), // quiet NaN, sign bit set
	math.Float64frombits(0x7ff0000000000789), // signalling NaN
	math.Float64frombits(0xfff0000000000abc), // signalling NaN, sign bit set
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64,
	1, -1.5, math.Pi,
}

// sameFloatBits fails the test unless got and want have the same length and
// bit-identical elements.
func sameFloatBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %#x, want %#x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// appendFloats is b with the sequence vs appended by a Writer.
func appendFloats(b []byte, vs []float64) []byte {
	w := Writer{Buf: b}
	w.Floats(vs)
	return w.Buf
}

// TestFloatsBlockMatchesLoop pins the block copy to the per-element
// encoding, the big-endian path and the wire's definition: every prefix of
// floatSpecials (the empty sequence included), behind a prefix that leaves
// the floats at every alignment, is written as the same bytes by
// Writer.Floats and by the count plus appendFloatsLoop, and read back to the
// same bits by Floats and by readFloatsLoop.
func TestFloatsBlockMatchesLoop(t *testing.T) {
	for n := 0; n <= len(floatSpecials); n++ {
		vs := floatSpecials[:n]
		for pad := 0; pad < IntSize; pad++ {
			prefix := bytes.Repeat([]byte{0xa5}, pad)
			got := appendFloats(append([]byte(nil), prefix...), vs)
			want := AppendInt(append([]byte(nil), prefix...), n)
			want = append(want, make([]byte, IntSize*n)...)
			appendFloatsLoop(want[pad+IntSize:], vs)
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d pad=%d: Writer.Floats wrote %x, the loop %x", n, pad, got, want)
			}
			for i, v := range vs {
				off := pad + IntSize + IntSize*i
				if b := AppendFloat(nil, v); !bytes.Equal(got[off:off+IntSize], b) {
					t.Fatalf("n=%d pad=%d: element %d encoded %x, AppendFloat %x", n, pad, i, got[off:off+IntSize], b)
				}
			}

			r := NewReader(got[pad:])
			block := r.Floats(nil, "floats")
			if err := r.Err(); err != nil {
				t.Fatalf("n=%d pad=%d: %v", n, pad, err)
			}
			loop := make([]float64, n)
			readFloatsLoop(loop, got[pad+IntSize:])
			sameFloatBits(t, "block read", block, vs)
			sameFloatBits(t, "loop read", loop, vs)
			if n == 0 && block != nil {
				t.Fatalf("pad=%d: the empty sequence read as %v, want nil", pad, block)
			}
		}
	}
}

// TestFloatsDst checks Floats' buffer rules: a dst long enough is reused and
// resliced, with nothing written past the sequence's length; a short one is
// replaced and left untouched.
func TestFloatsDst(t *testing.T) {
	vs := floatSpecials[:5]
	enc := appendFloats(nil, vs)
	const guard = -7.25

	long := []float64{guard, guard, guard, guard, guard, guard, guard, guard}
	r := NewReader(enc)
	got := r.Floats(long[:6], "floats")
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if &got[0] != &long[0] || len(got) != len(vs) {
		t.Fatalf("a long enough dst was not reused: len %d, same array %v", len(got), &got[0] == &long[0])
	}
	sameFloatBits(t, "reused dst", got, vs)
	for i := len(vs); i < len(long); i++ {
		if long[i] != guard {
			t.Fatalf("element %d past the sequence became %v", i, long[i])
		}
	}

	short := []float64{guard, guard, guard, guard}
	r = NewReader(enc)
	got = r.Floats(short, "floats")
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if &got[0] == &short[0] {
		t.Fatal("a short dst was written instead of replaced")
	}
	sameFloatBits(t, "replaced dst", got, vs)
	for i, v := range short {
		if v != guard {
			t.Fatalf("element %d of the short dst became %v", i, v)
		}
	}
}

// TestFloatsRefusesCountPastEnd checks that a count one element larger than
// the bytes left can hold is refused before anything is allocated or
// written: no allocation, an untouched dst, every later read empty, and an
// error naming the sequence.
func TestFloatsRefusesCountPastEnd(t *testing.T) {
	const n = 64
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = 1.5
	}
	enc := appendFloats(nil, vs)
	copy(enc, AppendInt(nil, n+1))
	dst := make([]float64, n+1)
	for i := range dst {
		dst[i] = -7.25
	}
	var got []float64
	allocs := testing.AllocsPerRun(100, func() {
		got = NewReader(enc).Floats(nil, "params")
		got = append(got, NewReader(enc).Floats(dst, "params")...)
	})
	if allocs != 0 {
		t.Fatalf("refusing a count past the end: %v allocs/op, want 0", allocs)
	}
	if got != nil {
		t.Fatalf("a refused count read %d elements", len(got))
	}
	r := NewReader(enc)
	r.Floats(dst, "params")
	for i, v := range dst {
		if v != -7.25 {
			t.Fatalf("dst[%d] became %v", i, v)
		}
	}
	if r.Int() != 0 || r.Floats(nil, "more") != nil {
		t.Fatal("a read after the refusal returned data")
	}
	if err := r.Err(); err == nil || err.Error() != "params claims 65 elements, 512 bytes left" {
		t.Fatalf("err = %v", err)
	}
}

// TestCountRefusesNegative checks the other hostile count: a negative one.
func TestCountRefusesNegative(t *testing.T) {
	r := NewReader(AppendInt(nil, -1))
	if got := r.Ints(nil, "ids"); got != nil || r.Err() == nil {
		t.Fatalf("a negative count read %v, err %v", got, r.Err())
	}
}

// encodeMixed writes one of every kind of value to w: integers, raw bytes,
// and float sequences of several lengths, the empty one included.
func encodeMixed(w *Writer) {
	w.Int(-3)
	w.Raw("name")
	w.Floats(floatSpecials)
	w.Ints([]int{4, 5})
	w.Floats(nil)
	w.Float(math.Pi)
	w.Floats(floatSpecials[:1])
}

// TestWriterViewsMatchFlat: a Writer with Views writes, as parts, exactly the
// bytes a flat one writes, and on a little-endian host each float sequence
// is a view of the floats' own memory; a reset Writer writes the same parts
// again into its kept storage without allocating.
func TestWriterViewsMatchFlat(t *testing.T) {
	var flat, views Writer
	encodeMixed(&flat)
	views.Views = true
	encodeMixed(&views)
	if got := bytes.Join(views.Parts(), nil); !bytes.Equal(got, flat.Buf) {
		t.Fatalf("parts join to %x, the flat encoding is %x", got, flat.Buf)
	}
	if littleEndian {
		aliased := 0
		for _, p := range views.Parts() {
			if len(p) > 0 && (&p[0] == &FloatBytes(floatSpecials)[0]) {
				aliased++
			}
		}
		if aliased != 2 {
			t.Fatalf("%d parts are views of the floats, want 2", aliased)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		views.Reset()
		encodeMixed(&views)
		views.Parts()
	}); n != 0 {
		t.Fatalf("a reset Writer made %v allocations, want 0", n)
	}
	if got := bytes.Join(views.Parts(), nil); !bytes.Equal(got, flat.Buf) {
		t.Fatalf("after Reset the parts join to %x, want %x", got, flat.Buf)
	}
}

// TestStreamReaderMatchesBytes: a stream Reader, its buffer smaller than the
// raw bytes and the floats, reads what a byte Reader reads; the stream cut
// short is an error, bytes left over are trailing, and a count is checked
// against the stream's bytes left.
func TestStreamReaderMatchesBytes(t *testing.T) {
	var w Writer
	w.Int(40)
	w.Raw(strings.Repeat("x", 40))
	w.Floats(floatSpecials)
	w.Ints([]int{7, 8, 9})
	enc := w.Buf
	read := func(r *Reader) (string, []float64, []int) {
		name := string(r.Bytes(r.Count("name", 1)))
		return name, r.Floats(nil, "floats"), r.Ints(nil, "ints")
	}
	stream := func(b []byte, n int) *Reader {
		return NewStreamReader(bufio.NewReaderSize(bytes.NewReader(b), 16), n)
	}
	wantName, wantFloats, wantInts := read(NewReader(enc))
	r := stream(enc, len(enc))
	name, floats, ints := read(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if name != wantName || !slices.Equal(ints, wantInts) {
		t.Fatalf("stream read %q %v, bytes read %q %v", name, ints, wantName, wantInts)
	}
	sameFloatBits(t, "stream floats", floats, wantFloats)

	for _, n := range []int{4, 48, 60, len(enc) - 1} {
		r := stream(enc[:n], len(enc))
		read(r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "unexpected EOF") {
			t.Fatalf("a stream cut at %d bytes: err %v, want unexpected EOF", n, err)
		}
	}
	r = stream(append(enc, 0), len(enc)+1)
	read(r)
	if err := r.Err(); err == nil || err.Error() != "1 trailing bytes" {
		t.Fatalf("a byte past the sequence: err %v", err)
	}
	r = stream(AppendInt(make([]byte, 0, 24), 3), 24)
	if r.Floats(nil, "params") != nil || r.Err() == nil || r.Err().Error() != "params claims 3 elements, 16 bytes left" {
		t.Fatalf("a count past the stream's bytes: err %v", r.Err())
	}
}

// TestFloatsInPlace: a sequence read from bytes that lie in its destination's
// memory leaves the destination a view of them (nothing moves on a
// little-endian host) holding the right bits.
func TestFloatsInPlace(t *testing.T) {
	var w Writer
	w.Floats(floatSpecials)
	arena := make([]float64, len(w.Buf)/IntSize)
	copy(FloatBytes(arena), w.Buf)
	got := NewReader(FloatBytes(arena)).Floats(arena[1:], "floats")
	if &got[0] != &arena[1] {
		t.Fatal("the sequence was not read into the window at its offset")
	}
	sameFloatBits(t, "in place", got, floatSpecials)
}

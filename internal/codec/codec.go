// Package codec holds the primitives of the repository's one binary tensor
// encoding, which the model checkpoint (moe.EncodeBytes) and every TCP
// message (package fed's frames) are written in: every integer is 8 bytes of
// little-endian int64, every float its 8 IEEE-754 bits, and every sequence
// its element count followed by the elements.
//
// Writers append to a caller-sized buffer. A Reader checks every count
// against the bytes left before anything of that length is allocated, so a
// hostile count costs an error, not memory, and reads a sequence into a
// buffer the caller keeps when it has room.
//
// A float sequence is moved as one block: on a little-endian host a
// []float64's memory already is its encoding, so AppendFloats and
// (*Reader).Floats copy it whole through a byte view of the slice. Whether
// the host is little-endian is decided once, at package init; a big-endian
// host converts element by element (appendFloatsLoop, readFloatsLoop), and
// both paths write and read the same bytes.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// littleEndian reports whether the host stores a float64 in the wire's byte
// order, which makes the block copy of a float sequence its encoding.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// IntSize is the encoded size of one integer or float.
const IntSize = 8

// SeqSize is the encoded size of a sequence of n integers or floats.
func SeqSize(n int) int { return IntSize + IntSize*n }

// AppendInt appends v as a little-endian int64.
func AppendInt(b []byte, v int) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

// AppendFloat appends v's bits.
func AppendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendInts appends the count of vs, then each value.
func AppendInts(b []byte, vs []int) []byte {
	b = AppendInt(b, len(vs))
	for _, v := range vs {
		b = AppendInt(b, v)
	}
	return b
}

// AppendFloats appends the count of vs, then each value's bits.
func AppendFloats(b []byte, vs []float64) []byte {
	b = slices.Grow(AppendInt(b, len(vs)), IntSize*len(vs))
	w := b[len(b) : len(b)+IntSize*len(vs)]
	if littleEndian {
		copy(w, floatBytes(vs))
	} else {
		appendFloatsLoop(w, vs)
	}
	return b[:len(b)+len(w)]
}

// floatBytes is the memory of vs as bytes, in the host's byte order.
func floatBytes(vs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), IntSize*len(vs))
}

// appendFloatsLoop writes each value's bits into w, which holds exactly
// IntSize bytes per value, one element at a time: the portable form of
// AppendFloats' block copy.
func appendFloatsLoop(w []byte, vs []float64) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(w[IntSize*i:], math.Float64bits(v))
	}
}

// readFloatsLoop reads dst's values from b, which holds exactly IntSize
// bytes per value, one element at a time: the portable form of Floats'
// block copy.
func readFloatsLoop(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[IntSize*i:]))
	}
}

// Reader decodes from a byte slice, which it consumes. After the first
// error every read returns zero values and Err keeps that error.
type Reader struct {
	b   []byte
	err error
	// refused is the count Count turned down, kept unformatted (err is then
	// errRefused) so that refusing a hostile count allocates nothing.
	refused struct {
		what        string
		count, left int
	}
}

// errRefused marks a Reader whose error is the count in its refused field.
var errRefused = errors.New("refused count")

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Failf records a decoding error, unless one is recorded already.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first error, or an error naming any bytes left unread.
func (r *Reader) Err() error {
	if r.err == nil && len(r.b) > 0 {
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err == errRefused {
		c := r.refused
		return fmt.Errorf("%s claims %d elements, %d bytes left", c.what, c.count, c.left)
	}
	return r.err
}

// Bytes consumes the next n bytes; the result aliases the input.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.Failf("truncated: %d bytes wanted, %d left", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// Int reads one integer.
func (r *Reader) Int() int {
	if b := r.Bytes(IntSize); b != nil {
		return int(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Float reads one float.
func (r *Reader) Float() float64 {
	if b := r.Bytes(IntSize); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Count reads the length of a sequence named what whose elements take at
// least size bytes each, refusing one the bytes left cannot hold.
func (r *Reader) Count(what string, size int) int {
	n := r.Int()
	if r.err == nil && (n < 0 || n > len(r.b)/size) {
		r.err = errRefused
		r.refused.what, r.refused.count, r.refused.left = what, n, len(r.b)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// Ints reads a sequence written by AppendInts into dst, which it returns
// resliced when dst holds enough elements and replaces with a new slice
// otherwise; an empty sequence is nil. It never writes past len(dst), so dst
// may be a window of a larger buffer.
func (r *Reader) Ints(dst []int, what string) []int {
	n := r.Count(what, IntSize)
	if n == 0 {
		return nil
	}
	if len(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = r.Int()
	}
	return dst
}

// Floats reads a sequence written by AppendFloats into dst, the way Ints
// does.
func (r *Reader) Floats(dst []float64, what string) []float64 {
	n := r.Count(what, IntSize)
	if n == 0 {
		return nil
	}
	if len(dst) < n {
		dst = make([]float64, n)
	}
	b, dst := r.Bytes(IntSize*n), dst[:n]
	if littleEndian {
		copy(floatBytes(dst), b)
	} else {
		readFloatsLoop(dst, b)
	}
	return dst
}

// Package codec holds the primitives of the repository's one binary tensor
// encoding, which the model checkpoint (moe.EncodeBytes) and every TCP
// message (package fed's frames) are written in: every integer is 8 bytes of
// little-endian int64, every float its 8 IEEE-754 bits, and every sequence
// its element count followed by the elements.
//
// A Writer appends an encoding to a buffer it keeps, or builds it as the
// parts of one vectored write. A Reader reads one from a byte slice or from a
// stream bounded by a frame's length; it checks every count against the bytes
// left before anything of that length is read or allocated, so a hostile
// count costs an error, not memory, and reads a sequence into a buffer the
// caller keeps when it has room.
//
// A float sequence is moved as one block: on a little-endian host a
// []float64's memory already is its encoding, so a Writer copies it whole
// through a byte view of the slice (FloatBytes), or in a vectored encoding
// does not copy it at all, and a Reader reads it whole into the slice's
// memory, or, where the bytes already lie in that memory, leaves them there.
// Whether the host is little-endian is decided once, at package init; a
// big-endian host converts element by element (appendFloatsLoop,
// readFloatsLoop), and both paths write and read the same bytes.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
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

// FloatBytes is the memory of vs as bytes, in the host's byte order: on a
// little-endian host, the encoding of vs's elements. A float sequence read
// into this memory is decoded in place (see Reader.Floats).
func FloatBytes(vs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), IntSize*len(vs))
}

// A Writer appends one encoding. A Writer whose Views is false appends all of
// it to Buf. One whose Views is true builds it as the parts of one vectored
// write: on a little-endian host each float sequence's elements are a byte
// view of the floats' own memory, and Buf holds only the words between them
// (on a big-endian host the floats are converted into Buf as well). The views
// alias the floats: they must not be written until the write is done.
type Writer struct {
	Buf   []byte
	Views bool
	parts net.Buffers // Buf's runs and the views so far, with Views
	mark  int         // Buf's bytes before mark are in parts already
}

// Reset empties w, keeping Buf's storage and that of its parts list.
func (w *Writer) Reset() { w.Buf, w.parts, w.mark = w.Buf[:0], w.parts[:0], 0 }

// Parts returns the encoding written since Reset as the parts of one
// vectored write, in order; without Views it is Buf alone. The list is w's
// own, valid until the next Reset.
func (w *Writer) Parts() net.Buffers {
	if len(w.Buf) > w.mark {
		w.parts, w.mark = append(w.parts, w.Buf[w.mark:]), len(w.Buf)
	}
	return w.parts
}

// Int appends v as a little-endian int64.
func (w *Writer) Int(v int) { w.Buf = AppendInt(w.Buf, v) }

// Float appends v's bits.
func (w *Writer) Float(v float64) { w.Buf = AppendFloat(w.Buf, v) }

// Raw appends s's bytes as they are, with no count.
func (w *Writer) Raw(s string) { w.Buf = append(w.Buf, s...) }

// Ints appends the count of vs, then each value.
func (w *Writer) Ints(vs []int) {
	w.Int(len(vs))
	for _, v := range vs {
		w.Int(v)
	}
}

// Floats appends the count of vs, then each value's bits: as a view of vs's
// memory with Views on a little-endian host, and copied into Buf otherwise.
func (w *Writer) Floats(vs []float64) {
	w.Int(len(vs))
	switch {
	case len(vs) == 0:
	case w.Views && littleEndian:
		w.Parts()
		w.parts = append(w.parts, FloatBytes(vs))
	default:
		b := slices.Grow(w.Buf, IntSize*len(vs))
		data := b[len(b) : len(b)+IntSize*len(vs)]
		if littleEndian {
			copy(data, FloatBytes(vs))
		} else {
			appendFloatsLoop(data, vs)
		}
		w.Buf = b[:len(b)+len(data)]
	}
}

// appendFloatsLoop writes each value's bits into w, which holds exactly
// IntSize bytes per value, one element at a time: the portable form of
// Writer.Floats' block copy.
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

// Reader decodes from a byte slice, which it consumes, or from a stream of a
// known length. After the first error every read returns zero values and Err
// keeps that error.
type Reader struct {
	b    []byte
	src  *bufio.Reader // the stream, when the source is one
	left int           // the stream's bytes not yet read
	err  error
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

// NewStreamReader returns a Reader over the next n bytes of src, which must
// hold at least n more bytes: a frame's body whose length its frame
// announced. Counts are checked against what is left of the n, and reading
// fewer than n is an error (Err).
func NewStreamReader(src *bufio.Reader, n int) *Reader { return &Reader{src: src, left: n} }

// remaining is the number of bytes left to read.
func (r *Reader) remaining() int {
	if r.src != nil {
		return r.left
	}
	return len(r.b)
}

// Failf records a decoding error, unless one is recorded already.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first error, or an error naming any bytes left unread.
func (r *Reader) Err() error {
	if n := r.remaining(); r.err == nil && n > 0 {
		return fmt.Errorf("%d trailing bytes", n)
	}
	if r.err == errRefused {
		c := r.refused
		return fmt.Errorf("%s claims %d elements, %d bytes left", c.what, c.count, c.left)
	}
	return r.err
}

// Bytes consumes the next n bytes. The result aliases the input, or for a
// stream its buffer, and is valid until the next read.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if left := r.remaining(); n > left {
		r.Failf("truncated: %d bytes wanted, %d left", n, left)
		return nil
	}
	if r.src != nil {
		return r.stream(n)
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// stream consumes the stream's next n bytes, which it has: a view of its
// buffer when they fit there, and a new slice otherwise.
func (r *Reader) stream(n int) []byte {
	out, err := r.src.Peek(n)
	if err == bufio.ErrBufferFull {
		out = make([]byte, n)
		_, err = io.ReadFull(r.src, out)
	} else if err == nil {
		_, err = r.src.Discard(n)
	}
	r.left -= n
	if err != nil {
		r.Failf("truncated: %w", noEOF(err))
		return nil
	}
	return out
}

// noEOF is err, with the end of the stream inside the expected bytes named as
// the unexpected end it is.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
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
	if left := r.remaining(); r.err == nil && (n < 0 || n > left/size) {
		r.err = errRefused
		r.refused.what, r.refused.count, r.refused.left = what, n, left
	}
	if r.err != nil {
		return 0
	}
	return n
}

// Ints reads a sequence written by Writer.Ints into dst, which it returns
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

// Floats reads a sequence written by Writer.Floats into dst, the way Ints
// does. From a stream the bytes are read straight into dst's memory. Where
// the bytes already lie in dst's memory (a frame read into FloatBytes of the
// slice dst is a window of, dst at the sequence's offset), nothing moves on a
// little-endian host: dst becomes a view of the bytes; a big-endian host
// converts them in place.
func (r *Reader) Floats(dst []float64, what string) []float64 {
	n := r.Count(what, IntSize)
	if n == 0 {
		return nil
	}
	if len(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	mem := FloatBytes(dst)
	if r.src != nil {
		_, err := io.ReadFull(r.src, mem)
		r.left -= len(mem)
		if err != nil {
			r.Failf("truncated %s: %w", what, noEOF(err))
			return nil
		}
		if !littleEndian {
			readFloatsLoop(dst, mem)
		}
		return dst
	}
	b := r.Bytes(len(mem))
	switch {
	case littleEndian && unsafe.SliceData(b) == unsafe.SliceData(mem):
	case littleEndian:
		copy(mem, b)
	default:
		readFloatsLoop(dst, b) // in place when b is mem: each value is read before it is written
	}
	return dst
}

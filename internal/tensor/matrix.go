package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Grow returns a rows×cols matrix, reusing m's backing storage when its
// capacity suffices and allocating otherwise (m may be nil). A reallocation
// makes room for twice m's old capacity, so a matrix whose shape creeps
// upwards (one row per longer sequence) reallocates a logarithmic number of
// times. Element contents are unspecified after a Grow — callers must fully
// overwrite or Zero before reading. Workspaces use it so transient matrices
// stop allocating once their high-water shape is reached.
func Grow(m *Matrix, rows, cols int) *Matrix {
	n := rows * cols
	if m == nil {
		return NewMatrix(rows, cols)
	}
	if cap(m.Data) < n {
		m.Data = make([]float64, n, max(n, 2*cap(m.Data)))
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src's contents into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: copy shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// RandInit fills m with Gaussian(0, std) values from g.
func (m *Matrix) RandInit(g *RNG, std float64) {
	for i := range m.Data {
		m.Data[i] = g.Gauss(0, std)
	}
}

// XavierInit fills m with the Xavier/Glorot scaling for a fanIn×fanOut layer.
func (m *Matrix) XavierInit(g *RNG) {
	std := math.Sqrt(2.0 / float64(m.Rows+m.Cols))
	m.RandInit(g, std)
}

// Tile sizes for the blocked matmul: a kTile×jTile block of b is packed into
// a contiguous buffer and reused across every row of a. Matrices that fit a
// single block (everything in the shipped model configs) take a direct dense
// path with no packing and no per-element branch.
const (
	matmulTileK = 128 // b-rows (reduction dim) per packed block
	matmulTileJ = 64  // b-cols (output cols) per packed block
)

// MulScratch is a reusable packing buffer for the tiled matmul. The zero
// value is ready to use; the buffer grows to one tile and is then reused, so
// a per-worker MulScratch makes steady-state large matmuls allocation-free.
type MulScratch struct {
	pack []float64
}

// MatMulInto computes out = a×b into a preallocated matrix, packing through
// ms's buffer. Panics on shape mismatch.
//
// The kernel is tiled over output blocks only: every out element still
// accumulates its a[i][k]*b[k][j] terms in ascending-k order starting from
// zero, exactly like the naive ikj loop, so results are bit-identical to the
// reference kernel at every shape (TestMatMulTiledBitIdentity pins this).
// Where AVX-512F runs, rows go four at a time through MulRows's kernel,
// which runs their chains side by side in panels of up to 24 columns, each
// element still one ascending chain from +0
// (TestAVX512MatMulRows4BitIdentity); the rows left over take one AxpyRows
// each.
//
// Hot path: the innermost matmul kernel of every forward/backward. It reuses
// the packed scratch and stays 0 allocs/op when warm, pinned by
// TestAxpyKernelsZeroAllocs.
func (ms *MulScratch) MatMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic("tensor: matmul output shape mismatch")
	}
	done := mulRows4(out.Data, a.Data, b.Data, nil, a.Rows, a.Cols, b.Cols, a.Cols, b.Cols, b.Cols, false)
	clear(out.Data[done*out.Cols:])
	if done > 0 || (b.Rows <= matmulTileK && b.Cols <= matmulTileJ) || b.Rows*b.Cols <= matmulTileK*matmulTileJ {
		// Single-block case — b fits a tile's worth of cache even if one
		// dimension overhangs (e.g. the thin dim×vocab head projection):
		// direct dense ikj, one AxpyRows (out row += a row × b) per row of
		// a. Element order per output is the same ascending-k pass as the
		// blocked path, so path selection never changes bits.
		for i := done; i < a.Rows; i++ {
			AxpyRows(out.Row(i), a.Row(i), b.Data, b.Cols)
		}
		return
	}
	if cap(ms.pack) < matmulTileK*matmulTileJ {
		ms.pack = make([]float64, matmulTileK*matmulTileJ)
	}
	// Blocked path: for each (k,j) tile of b, pack the tile contiguously and
	// sweep all rows of a over it. k tiles are visited in ascending order and
	// partial sums accumulate directly into out, so each element's reduction
	// remains one ascending-k pass — bit-identical to the naive kernel.
	for j0 := 0; j0 < b.Cols; j0 += matmulTileJ {
		jw := b.Cols - j0
		if jw > matmulTileJ {
			jw = matmulTileJ
		}
		for k0 := 0; k0 < b.Rows; k0 += matmulTileK {
			kw := b.Rows - k0
			if kw > matmulTileK {
				kw = matmulTileK
			}
			pack := ms.pack[:kw*jw]
			for k := 0; k < kw; k++ {
				copy(pack[k*jw:(k+1)*jw], b.Row(k0 + k)[j0:j0+jw])
			}
			for i := 0; i < a.Rows; i++ {
				AxpyRows(out.Row(i)[j0:j0+jw], a.Row(i)[k0:k0+kw], pack, jw)
			}
		}
	}
}

// MatMulIntoCols writes a×b transposed into columns [col, col+a.Rows) of
// outT, which has b.Cols rows: outT[j][col+i] gets out[i][j] of MatMulInto,
// bit for bit, and outT's other columns keep theirs. It is how attention
// keys land transposed, one row per dimension and one column per position,
// in the layer's key matrix and the decode cache. Where MatMulInto runs
// four rows at a time, the same kernel stores each group's 4×8 tiles
// transposed in registers; other rows take one AxpyRows each into ms's
// buffer, scattered down the column.
func (ms *MulScratch) MatMulIntoCols(outT *Matrix, col int, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if outT.Rows != b.Cols || col < 0 || col+a.Rows > outT.Cols {
		panic("tensor: matmul output columns out of range")
	}
	n := b.Cols
	if n == 0 {
		return
	}
	done := mulRows4(outT.Data[col:], a.Data, b.Data, nil, a.Rows, a.Cols, n, a.Cols, n, outT.Cols, true)
	if cap(ms.pack) < n {
		ms.pack = make([]float64, n)
	}
	row := ms.pack[:n]
	for i := done; i < a.Rows; i++ {
		clear(row)
		AxpyRows(row, a.Row(i), b.Data, n)
		for j, v := range row {
			outT.Data[j*outT.Cols+col+i] = v
		}
	}
}

// MatMulTransBInto computes out = a×bᵀ into a preallocated matrix,
// overwriting every element. It packs bᵀ into ms's buffer once per call,
// then runs one AxpyRows per row of a from +0, so every element is Dot(a row
// i, b row j) bit for bit — one accumulator from +0, terms in ascending k —
// at the Axpy form's rate rather than the dot form's.
//
// Hot path: the attention backward's dXNorm, the head's dL/dnormed and
// PCA's projection; 0 allocs/op on a warm scratch, pinned by
// TestAxpyKernelsZeroAllocs.
func (ms *MulScratch) MatMulTransBInto(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic("tensor: matmulT output shape mismatch")
	}
	n := b.Rows
	if cap(ms.pack) < n*b.Cols {
		ms.pack = make([]float64, n*b.Cols)
	}
	bt := ms.pack[:n*b.Cols]
	for j := 0; j < n; j++ {
		for k, v := range b.Row(j) {
			bt[k*n+j] = v
		}
	}
	out.Zero()
	for i := 0; i < a.Rows; i++ {
		AxpyRows(out.Row(i), a.Row(i), bt, n)
	}
}

// MatMulTransAInto computes out = aᵀ×b into a preallocated matrix (zeroed
// first): one OuterNonzeroRows per row k of a, out += a[k]ᵀ·b[k], which
// adds b's row k into every row i of out whose a[k][i] is not zero. The
// skip on zero a-elements is kept deliberately: the transposed operands on
// the backward path (attention probabilities, masked logit gradients) are
// genuinely sparse, and skipping zero terms cannot change the accumulated
// bits for finite b. Each element still takes its terms in ascending k, as
// one Axpy per nonzero element would.
func MatMulTransAInto(out, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTA shape mismatch (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic("tensor: matmulTA output shape mismatch")
	}
	out.Zero()
	for k := 0; k < a.Rows; k++ {
		OuterNonzeroRows(out.Data, a.Row(k), b.Row(k), out.Cols)
	}
}

// Scale multiplies every element by s.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled computes m += s*other elementwise.
func (m *Matrix) AddScaled(other *Matrix, s float64) {
	checkSameShape(m, other)
	Axpy(s, other.Data, m.Data)
}

// Equal reports whether m and other have identical shape and elements within tol.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-other.Data[i]) > tol {
			return false
		}
	}
	return true
}

func checkSameShape(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

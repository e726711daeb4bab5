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
// capacity suffices and allocating otherwise (m may be nil). Element contents
// are unspecified after a Grow — callers must fully overwrite or Zero before
// reading. Workspaces use it so transient matrices stop allocating once their
// high-water shape is reached.
func Grow(m *Matrix, rows, cols int) *Matrix {
	n := rows * cols
	if m == nil {
		return NewMatrix(rows, cols)
	}
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
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
	out.Zero()
	if (b.Rows <= matmulTileK && b.Cols <= matmulTileJ) || b.Rows*b.Cols <= matmulTileK*matmulTileJ {
		// Single-block case — b fits a tile's worth of cache even if one
		// dimension overhangs (e.g. the thin dim×vocab head projection):
		// direct dense ikj, one AxpyRows (out row += a row × b) per row of
		// a. Element order per output is the same ascending-k pass as the
		// blocked path, so path selection never changes bits.
		for i := 0; i < a.Rows; i++ {
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

// MatMulTransBInto computes out = a×bᵀ into a preallocated matrix. Every
// element is overwritten: row i of out is b times row i of a, one DotRows,
// so each element is Dot(a row i, b row j) bit for bit.
func MatMulTransBInto(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic("tensor: matmulT output shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		DotRows(out.Row(i), a.Row(i), b.Data, b.Cols)
	}
}

// MatMulTransAInto computes out = aᵀ×b into a preallocated matrix (zeroed
// first). The skip on zero a-elements is kept deliberately: the transposed
// operands on the backward path (attention probabilities, masked logit
// gradients) are genuinely sparse, and skipping zero terms cannot change the
// accumulated bits for finite b.
func MatMulTransAInto(out, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTA shape mismatch (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic("tensor: matmulTA output shape mismatch")
	}
	out.Zero()
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			Axpy(av, brow, out.Row(i))
		}
	}
}

// TransposeInto writes mᵀ into a preallocated out. Every element is
// overwritten.
func TransposeInto(out, m *Matrix) {
	if out.Rows != m.Cols || out.Cols != m.Rows {
		panic("tensor: transpose output shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
}

// Add computes m += other elementwise.
func (m *Matrix) Add(other *Matrix) {
	checkSameShape(m, other)
	for i, v := range other.Data {
		m.Data[i] += v
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

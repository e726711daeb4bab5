package moe

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/codec"
	"repro/internal/tensor"
)

// The model codec: one little-endian binary layout for the TCP broadcast
// and for checkpoint files.
//
//	header  "FLUXMOE" and a version byte
//	cfg     name (length, bytes), vocab, dim, ffn, topK, maxSeqLen,
//	        experts per layer (count, values)
//	model   embed, head, layer count, then per layer: Wq, Wk, Wv, gate,
//	        orig experts, topK, routing (count, values), expert count, and
//	        per expert: W1, B1, W2, B2, frozen (0 or 1), merged-from (count,
//	        values)
//
// Integers, floats and sequences are package codec's. A matrix is rows,
// cols and its elements as a sequence; a vector is a sequence. Each tensor
// carries its own length, so a model whose tensors disagree with its Cfg
// still encodes, and DecodeBytes names the disagreement instead of reading
// mis-strided rows.

const (
	codecMagic   = "FLUXMOE"
	codecVersion = 1
	headerSize   = len(codecMagic) + 1
)

// Encoded sizes of the codec's pieces, with params the floats a piece's
// tensors hold. EncodedSize and encodedSize add them up the same way
// EncodeBytes writes them.
func matrixSize(n int) int { return 2*codec.IntSize + codec.SeqSize(n) }
func modelSize(c Config, params int) int {
	return headerSize + codec.SeqSize(0) + len(c.Name) + 5*codec.IntSize + codec.SeqSize(len(c.ExpertsPerLayer)) +
		2*matrixSize(0) + codec.IntSize*params + codec.IntSize
}
func layerSize(params, routing int) int {
	return 4*matrixSize(0) + codec.IntSize*params + 2*codec.IntSize + codec.SeqSize(routing) + codec.IntSize
}
func expertSize(params, merged int) int {
	return 2*matrixSize(0) + 2*codec.SeqSize(0) + codec.IntSize*params + codec.IntSize + codec.SeqSize(merged)
}

// EncodedSize returns the length of EncodeBytes' output for a model of
// config c as New builds it (every expert original, none merged): the size
// of a full-model broadcast, the largest message a deployment of c carries.
func EncodedSize(c Config) int {
	n := modelSize(c, 2*c.VocabSize*c.Dim)
	for _, e := range c.ExpertsPerLayer {
		n += layerSize(3*c.Dim*c.Dim+c.Dim*e, e) + e*expertSize(c.ExpertParams(), 0)
	}
	return n
}

// encodedSize is EncodedSize for m's own tensors, whatever their shapes.
func (m *Model) encodedSize() (int, error) {
	n := modelSize(m.Cfg, dataLen(m.Embed)+dataLen(m.Head))
	for l, layer := range m.Layers {
		if layer == nil {
			return 0, fmt.Errorf("layer %d missing", l)
		}
		n += layerSize(dataLen(layer.Wq)+dataLen(layer.Wk)+dataLen(layer.Wv)+dataLen(layer.Gate), len(layer.Routing))
		for e, ex := range layer.Experts {
			if ex == nil {
				return 0, fmt.Errorf("layer %d expert %d missing", l, e)
			}
			n += expertSize(dataLen(ex.W1)+len(ex.B1)+dataLen(ex.W2)+len(ex.B2), len(ex.MergedFrom))
		}
	}
	return n, nil
}

func dataLen(m *tensor.Matrix) int {
	if m == nil {
		return 0
	}
	return len(m.Data)
}

// EncodeBytes serializes the model in the codec above, into one buffer of
// exactly the encoded size. A nil matrix encodes as an empty one.
func (m *Model) EncodeBytes() ([]byte, error) {
	n, err := m.encodedSize()
	if err != nil {
		return nil, fmt.Errorf("moe: encode model: %w", err)
	}
	b := append(make([]byte, 0, n), codecMagic...)
	b = append(codec.AppendInt(append(b, codecVersion), len(m.Cfg.Name)), m.Cfg.Name...)
	for _, v := range []int{m.Cfg.VocabSize, m.Cfg.Dim, m.Cfg.FFNDim, m.Cfg.TopK, m.Cfg.MaxSeqLen} {
		b = codec.AppendInt(b, v)
	}
	b = codec.AppendInts(b, m.Cfg.ExpertsPerLayer)
	b = appendMatrix(appendMatrix(b, m.Embed), m.Head)
	b = codec.AppendInt(b, len(m.Layers))
	for _, layer := range m.Layers {
		for _, w := range []*tensor.Matrix{layer.Wq, layer.Wk, layer.Wv, layer.Gate} {
			b = appendMatrix(b, w)
		}
		b = codec.AppendInt(codec.AppendInt(b, layer.OrigExperts), layer.TopK)
		b = codec.AppendInts(b, layer.Routing)
		b = codec.AppendInt(b, len(layer.Experts))
		for _, ex := range layer.Experts {
			b = codec.AppendFloats(appendMatrix(b, ex.W1), ex.B1)
			b = codec.AppendFloats(appendMatrix(b, ex.W2), ex.B2)
			frozen := 0
			if ex.Frozen {
				frozen = 1
			}
			b = codec.AppendInts(codec.AppendInt(b, frozen), ex.MergedFrom)
		}
	}
	return b, nil
}

func appendMatrix(b []byte, m *tensor.Matrix) []byte {
	var rows, cols int
	var data []float64
	if m != nil {
		rows, cols, data = m.Rows, m.Cols, m.Data
	}
	return codec.AppendFloats(codec.AppendInt(codec.AppendInt(b, rows), cols), data)
}

// DecodeBytes deserializes a model written by EncodeBytes or SaveFile. Every
// length is checked against the bytes left before anything of that length is
// allocated, and trailing bytes are an error. A model whose tensors disagree
// with its own Cfg (a matrix of the wrong shape or length, a layer or expert
// missing, a routing table of the wrong length or pointing past the layer's
// experts) is an error, never a model that reads mis-strided rows.
func DecodeBytes(b []byte) (*Model, error) {
	if len(b) < headerSize || string(b[:len(codecMagic)]) != codecMagic {
		return nil, errors.New("moe: decode model: not a model encoding")
	}
	if v := b[len(codecMagic)]; v != codecVersion {
		return nil, fmt.Errorf("moe: decode model: encoding version %d, want %d", v, codecVersion)
	}
	r := codec.NewReader(b[headerSize:])
	m := decodeModel(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("moe: decode model: %w", err)
	}
	if err := m.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("moe: decoded model invalid: %w", err)
	}
	if err := m.checkShapes(); err != nil {
		return nil, fmt.Errorf("moe: decoded model invalid: %w", err)
	}
	return m, nil
}

// decodeModel reads what EncodeBytes writes after the header. On a decoding
// error, recorded in r, the model is partial.
func decodeModel(r *codec.Reader) *Model {
	m := &Model{}
	m.Cfg.Name = string(r.Bytes(r.Count("name", 1)))
	for _, v := range []*int{&m.Cfg.VocabSize, &m.Cfg.Dim, &m.Cfg.FFNDim, &m.Cfg.TopK, &m.Cfg.MaxSeqLen} {
		*v = r.Int()
	}
	m.Cfg.ExpertsPerLayer = r.Ints("experts per layer")
	m.Embed = decodeMatrix(r, "embed")
	m.Head = decodeMatrix(r, "head")
	m.Layers = make([]*Layer, r.Count("layers", layerSize(0, 0)))
	for l := range m.Layers {
		layer := &Layer{Wq: decodeMatrix(r, "wq"), Wk: decodeMatrix(r, "wk"), Wv: decodeMatrix(r, "wv"), Gate: decodeMatrix(r, "gate")}
		layer.OrigExperts, layer.TopK = r.Int(), r.Int()
		layer.Routing = r.Ints("routing")
		layer.Experts = make([]*Expert, r.Count("experts", expertSize(0, 0)))
		for e := range layer.Experts {
			ex := &Expert{W1: decodeMatrix(r, "w1"), B1: r.Floats("b1"), W2: decodeMatrix(r, "w2"), B2: r.Floats("b2")}
			switch frozen := r.Int(); frozen {
			case 0, 1:
				ex.Frozen = frozen == 1
			default:
				r.Failf("layer %d expert %d frozen flag %d", l, e, frozen)
			}
			ex.MergedFrom = r.Ints("merged-from")
			layer.Experts[e] = ex
		}
		m.Layers[l] = layer
	}
	return m
}

func decodeMatrix(r *codec.Reader, what string) *tensor.Matrix {
	rows, cols := r.Int(), r.Int()
	return &tensor.Matrix{Rows: rows, Cols: cols, Data: r.Floats(what)}
}

// checkShapes reports the first tensor of m that disagrees with m.Cfg. A
// layer's gate and routing table span its OrigExperts original experts; its
// Experts (Cfg.ExpertsPerLayer of them) may be fewer after merging.
func (m *Model) checkShapes() error {
	c := m.Cfg
	switch {
	case !shaped(m.Embed, c.VocabSize, c.Dim):
		return fmt.Errorf("embed is not %d×%d", c.VocabSize, c.Dim)
	case !shaped(m.Head, c.Dim, c.VocabSize):
		return fmt.Errorf("head is not %d×%d", c.Dim, c.VocabSize)
	case len(m.Layers) != c.Layers():
		return fmt.Errorf("%d layers, config has %d", len(m.Layers), c.Layers())
	}
	for l, layer := range m.Layers {
		switch {
		case layer == nil:
			return fmt.Errorf("layer %d missing", l)
		case !shaped(layer.Wq, c.Dim, c.Dim) || !shaped(layer.Wk, c.Dim, c.Dim) || !shaped(layer.Wv, c.Dim, c.Dim):
			return fmt.Errorf("layer %d attention is not %d×%d", l, c.Dim, c.Dim)
		case len(layer.Experts) != c.ExpertsPerLayer[l]:
			return fmt.Errorf("layer %d has %d experts, config has %d", l, len(layer.Experts), c.ExpertsPerLayer[l])
		case !shaped(layer.Gate, c.Dim, layer.OrigExperts):
			return fmt.Errorf("layer %d gate is not %d×%d", l, c.Dim, layer.OrigExperts)
		case len(layer.Routing) != layer.OrigExperts || layer.TopK < 1 || layer.TopK > layer.OrigExperts:
			return fmt.Errorf("layer %d routes top-%d of %d experts through a %d-entry table", l, layer.TopK, layer.OrigExperts, len(layer.Routing))
		}
		for orig, pos := range layer.Routing {
			if pos < 0 || pos >= len(layer.Experts) {
				return fmt.Errorf("layer %d routes expert %d to position %d of %d", l, orig, pos, len(layer.Experts))
			}
		}
		for e, ex := range layer.Experts {
			if ex == nil || !shaped(ex.W1, c.Dim, c.FFNDim) || !shaped(ex.W2, c.FFNDim, c.Dim) || len(ex.B1) != c.FFNDim || len(ex.B2) != c.Dim {
				return fmt.Errorf("layer %d expert %d is not a %d×%d expert", l, e, c.Dim, c.FFNDim)
			}
		}
	}
	return nil
}

// shaped reports whether m is a rows×cols matrix holding rows·cols values,
// without forming rows·cols, which decoded dimensions could overflow.
func shaped(m *tensor.Matrix, rows, cols int) bool {
	return m != nil && m.Rows == rows && m.Cols == cols && rows > 0 && cols > 0 &&
		len(m.Data)%cols == 0 && len(m.Data)/cols == rows
}

// SaveFile writes the model checkpoint (EncodeBytes' bytes) to path.
func (m *Model) SaveFile(path string) error {
	b, err := m.EncodeBytes()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		return err
	}
	return f.Sync()
}

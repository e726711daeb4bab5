package moe

import (
	"errors"
	"fmt"
	"os"
	"slices"

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
	codecHeader  = codecMagic + "\x01" // the magic, then the version byte
	headerSize   = len(codecHeader)
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
	w := codec.Writer{Buf: make([]byte, 0, n)}
	m.encode(&w)
	return w.Buf, nil
}

// AppendEncoded writes the model's encoding to w: appended to w.Buf, so a
// caller that keeps w encodes without allocating once Buf has grown, or with
// w.Views as the parts of one vectored write whose floats are views of the
// model's own tensors, valid while nothing writes the model.
func (m *Model) AppendEncoded(w *codec.Writer) error {
	if _, err := m.encodedSize(); err != nil {
		return fmt.Errorf("moe: encode model: %w", err)
	}
	m.encode(w)
	return nil
}

// encode is the codec's one walker: it writes the model, which encodedSize
// has checked holds every layer and expert, to w in the layout above.
func (m *Model) encode(w *codec.Writer) {
	w.Raw(codecHeader)
	w.Int(len(m.Cfg.Name))
	w.Raw(m.Cfg.Name)
	for _, v := range []int{m.Cfg.VocabSize, m.Cfg.Dim, m.Cfg.FFNDim, m.Cfg.TopK, m.Cfg.MaxSeqLen} {
		w.Int(v)
	}
	w.Ints(m.Cfg.ExpertsPerLayer)
	encodeMatrix(w, m.Embed)
	encodeMatrix(w, m.Head)
	w.Int(len(m.Layers))
	for _, layer := range m.Layers {
		for _, t := range []*tensor.Matrix{layer.Wq, layer.Wk, layer.Wv, layer.Gate} {
			encodeMatrix(w, t)
		}
		w.Int(layer.OrigExperts)
		w.Int(layer.TopK)
		w.Ints(layer.Routing)
		w.Int(len(layer.Experts))
		for _, ex := range layer.Experts {
			encodeMatrix(w, ex.W1)
			w.Floats(ex.B1)
			encodeMatrix(w, ex.W2)
			w.Floats(ex.B2)
			frozen := 0
			if ex.Frozen {
				frozen = 1
			}
			w.Int(frozen)
			w.Ints(ex.MergedFrom)
		}
	}
}

func encodeMatrix(w *codec.Writer, m *tensor.Matrix) {
	var rows, cols int
	var data []float64
	if m != nil {
		rows, cols, data = m.Rows, m.Cols, m.Data
	}
	w.Int(rows)
	w.Int(cols)
	w.Floats(data)
}

// DecodeBytes deserializes a model written by EncodeBytes or SaveFile into a
// new model: it is DecodeInto(nil, codec.NewReader(b)).
func DecodeBytes(b []byte) (*Model, error) { return DecodeInto(nil, codec.NewReader(b)) }

// DecodeInto deserializes a model written by EncodeBytes or AppendEncoded
// from r, which must end where the model does, and returns it. r is a byte
// slice's or a stream's (codec.NewStreamReader), so a model is decoded from a
// connection without its bytes ever being held whole. With m nil the model is
// new. Otherwise r must hold a model of m.Cfg, and it is decoded into m: every
// tensor, slice and expert m already holds is overwritten in place, so a
// model decoded into one of the same shapes allocates nothing. On an error m
// is left partly overwritten and must not be used again.
//
// Every length is checked against the bytes left before anything of that
// length is read or allocated, and trailing bytes are an error. A model whose
// tensors disagree with its own Cfg (a matrix of the wrong shape or length, a
// layer or expert missing, a routing table of the wrong length or pointing
// past the layer's experts) is an error, never a model that reads
// mis-strided rows.
func DecodeInto(m *Model, r *codec.Reader) (*Model, error) {
	h := r.Bytes(headerSize)
	if h == nil || string(h[:len(codecMagic)]) != codecMagic {
		return nil, errors.New("moe: decode model: not a model encoding")
	}
	if v := h[len(codecMagic)]; v != codecVersion {
		return nil, fmt.Errorf("moe: decode model: encoding version %d, want %d", v, codecVersion)
	}
	fresh := m == nil
	if fresh {
		m = &Model{}
	}
	if cfg := decodeConfig(r, m.Cfg); fresh || cfg.equal(m.Cfg) {
		m.Cfg = cfg
		decodeModel(r, m)
	} else {
		r.Failf("holds model config %+v, want %+v", cfg, m.Cfg)
	}
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

// decodeConfig reads the encoded config. Its name and experts-per-layer list
// are prev's own when they are equal to prev's, so decoding a config equal
// to prev allocates nothing.
func decodeConfig(r *codec.Reader, prev Config) Config {
	c := Config{Name: prev.Name, ExpertsPerLayer: prev.ExpertsPerLayer}
	if name := r.Bytes(r.Count("name", 1)); string(name) != prev.Name {
		c.Name = string(name)
	}
	for _, v := range []*int{&c.VocabSize, &c.Dim, &c.FFNDim, &c.TopK, &c.MaxSeqLen} {
		*v = r.Int()
	}
	n := r.Count("experts per layer", codec.IntSize)
	same := n == len(prev.ExpertsPerLayer)
	if !same {
		c.ExpertsPerLayer = nil
	}
	for i := range n {
		v := r.Int()
		if same && v != prev.ExpertsPerLayer[i] {
			same, c.ExpertsPerLayer = false, slices.Clone(prev.ExpertsPerLayer[:i])
		}
		if !same {
			c.ExpertsPerLayer = append(c.ExpertsPerLayer, v)
		}
	}
	return c
}

// equal reports whether c and o are the same config.
func (c Config) equal(o Config) bool {
	return c.Name == o.Name && c.VocabSize == o.VocabSize && c.Dim == o.Dim && c.FFNDim == o.FFNDim &&
		c.TopK == o.TopK && c.MaxSeqLen == o.MaxSeqLen && slices.Equal(c.ExpertsPerLayer, o.ExpertsPerLayer)
}

// decodeModel reads the tensors AppendEncoded writes after the config into
// m, reusing whatever layers, experts, matrices and slices m holds. On a
// decoding error, recorded in r, m is partial.
func decodeModel(r *codec.Reader, m *Model) {
	m.Embed = decodeMatrix(r, m.Embed, "embed")
	m.Head = decodeMatrix(r, m.Head, "head")
	m.Layers = resize(m.Layers, r.Count("layers", layerSize(0, 0)))
	for l, layer := range m.Layers {
		if layer == nil {
			layer = &Layer{}
			m.Layers[l] = layer
		}
		layer.Wq, layer.Wk = decodeMatrix(r, layer.Wq, "wq"), decodeMatrix(r, layer.Wk, "wk")
		layer.Wv, layer.Gate = decodeMatrix(r, layer.Wv, "wv"), decodeMatrix(r, layer.Gate, "gate")
		layer.OrigExperts, layer.TopK = r.Int(), r.Int()
		layer.Routing = r.Ints(layer.Routing, "routing")
		layer.Experts = resize(layer.Experts, r.Count("experts", expertSize(0, 0)))
		for e, ex := range layer.Experts {
			if ex == nil {
				ex = &Expert{}
				layer.Experts[e] = ex
			}
			ex.W1, ex.B1 = decodeMatrix(r, ex.W1, "w1"), r.Floats(ex.B1, "b1")
			ex.W2, ex.B2 = decodeMatrix(r, ex.W2, "w2"), r.Floats(ex.B2, "b2")
			switch frozen := r.Int(); frozen {
			case 0, 1:
				ex.Frozen = frozen == 1
			default:
				r.Failf("layer %d expert %d frozen flag %d", l, e, frozen)
			}
			ex.MergedFrom = r.Ints(ex.MergedFrom, "merged-from")
		}
	}
}

// resize returns s with length n: its first n elements, then zero values
// where s had fewer.
func resize[T any](s []T, n int) []T {
	if n <= len(s) {
		return s[:n]
	}
	return append(s, make([]T, n-len(s))...)
}

// decodeMatrix reads a matrix into m, or into a new matrix if m is nil.
func decodeMatrix(r *codec.Reader, m *tensor.Matrix, what string) *tensor.Matrix {
	if m == nil {
		m = &tensor.Matrix{}
	}
	m.Rows, m.Cols = r.Int(), r.Int()
	m.Data = r.Floats(m.Data, what)
	return m
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

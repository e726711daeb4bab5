package moe

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/tensor"
)

// Save writes the model to w in gob format.
func (m *Model) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("moe: encode model: %w", err)
	}
	return nil
}

// Load reads a model previously written by Save. A checkpoint whose tensors
// disagree with its own Cfg (a matrix of the wrong shape or length, a layer
// or expert missing, a routing table of the wrong length or pointing past the
// layer's experts) is an error, never a model that reads mis-strided rows.
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("moe: decode model: %w", err)
	}
	if err := m.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("moe: loaded model invalid: %w", err)
	}
	if err := m.checkShapes(); err != nil {
		return nil, fmt.Errorf("moe: loaded model invalid: %w", err)
	}
	return &m, nil
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

// shaped reports whether m is a rows×cols matrix holding rows·cols values.
func shaped(m *tensor.Matrix, rows, cols int) bool {
	return m != nil && m.Rows == rows && m.Cols == cols && len(m.Data) == rows*cols
}

// SaveFile writes the model checkpoint to path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Sync()
}

// EncodeBytes serializes the model to a byte slice (gob).
func (m *Model) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeBytes deserializes a model from a byte slice written by EncodeBytes.
func DecodeBytes(b []byte) (*Model, error) {
	return Load(bytes.NewReader(b))
}

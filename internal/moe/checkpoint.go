package moe

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// Save writes the model to w in gob format.
func (m *Model) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("moe: encode model: %w", err)
	}
	return nil
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("moe: decode model: %w", err)
	}
	if err := m.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("moe: loaded model invalid: %w", err)
	}
	return &m, nil
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

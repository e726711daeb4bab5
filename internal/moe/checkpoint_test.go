package moe

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/tensor"
)

// sources are the two byte sources a model decodes from: a byte slice, and
// a stream read through a buffer smaller than most tensors.
var sources = []struct {
	name   string
	reader func(b []byte) *codec.Reader
}{
	{"bytes", codec.NewReader},
	{"stream", func(b []byte) *codec.Reader {
		return codec.NewStreamReader(bufio.NewReaderSize(bytes.NewReader(b), 16), len(b))
	}},
}

// codecModel is a small model whose tensors hold the float values a codec
// most easily mangles: NaNs with payloads (quiet and signalling), −0, ±Inf,
// the smallest and largest subnormals, and the extremes of the normal range.
func codecModel(t testing.TB) *Model {
	m, err := New(Uniform("codec", 8, 2, 3, 2, 3, 2, 4), tensor.Named("codec"))
	if err != nil {
		t.Fatal(err)
	}
	specials := []float64{
		math.Float64frombits(0x7ff8_0000_0000_0123), // quiet NaN, payload
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
		math.Float64frombits(0xfff8_dead_beef_0000), // negative NaN
		math.Copysign(0, -1),
		math.Inf(1),
		math.Inf(-1),
		math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff), // largest subnormal
		-math.SmallestNonzeroFloat64,
		math.MaxFloat64,
	}
	targets := [][]float64{m.Embed.Data, m.Head.Data, m.Layers[0].Gate.Data, m.Layers[1].Wv.Data,
		m.Layers[0].Experts[2].W1.Data, m.Layers[1].Experts[0].B1, m.Layers[1].Experts[1].W2.Data, m.Layers[0].Experts[0].B2}
	for i, v := range specials {
		d := targets[i%len(targets)]
		d[i%len(d)] = v
	}
	return m
}

// customizedCodecModel is codecModel after Customize: in every layer expert 0
// stays trainable and the rest merge into one frozen expert, so the layers
// hold fewer experts than their gates span and carry MergedFrom lists.
func customizedCodecModel(t testing.TB) *Model {
	m := codecModel(t)
	specs := make([]LayerSpec, len(m.Layers))
	for l, layer := range m.Layers {
		var rest []int
		for e := 1; e < layer.OrigExperts; e++ {
			rest = append(rest, e)
		}
		specs[l] = LayerSpec{Tuning: []int{0}, MergeGroups: [][]int{rest}}
	}
	local, err := Customize(m, specs)
	if err != nil {
		t.Fatal(err)
	}
	return local
}

// requireSameBits compares two models field by field, floats by their bits,
// independently of the codec under test.
func requireSameBits(t *testing.T, want, got *Model) {
	t.Helper()
	floats := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d values, want %d", what, len(b), len(a))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d] = %#x, want %#x", what, i, math.Float64bits(b[i]), math.Float64bits(a[i]))
			}
		}
	}
	matrix := func(what string, a, b *tensor.Matrix) {
		t.Helper()
		if a.Rows != b.Rows || a.Cols != b.Cols {
			t.Fatalf("%s is %d×%d, want %d×%d", what, b.Rows, b.Cols, a.Rows, a.Cols)
		}
		floats(what, a.Data, b.Data)
	}
	if !reflect.DeepEqual(want.Cfg, got.Cfg) {
		t.Fatalf("config %+v, want %+v", got.Cfg, want.Cfg)
	}
	matrix("embed", want.Embed, got.Embed)
	matrix("head", want.Head, got.Head)
	if len(want.Layers) != len(got.Layers) {
		t.Fatalf("%d layers, want %d", len(got.Layers), len(want.Layers))
	}
	for l, wl := range want.Layers {
		gl := got.Layers[l]
		matrix("wq", wl.Wq, gl.Wq)
		matrix("wk", wl.Wk, gl.Wk)
		matrix("wv", wl.Wv, gl.Wv)
		matrix("gate", wl.Gate, gl.Gate)
		if wl.OrigExperts != gl.OrigExperts || wl.TopK != gl.TopK || !reflect.DeepEqual(wl.Routing, gl.Routing) || len(wl.Experts) != len(gl.Experts) {
			t.Fatalf("layer %d: got %d/%d/%v/%d experts, want %d/%d/%v/%d", l,
				gl.OrigExperts, gl.TopK, gl.Routing, len(gl.Experts), wl.OrigExperts, wl.TopK, wl.Routing, len(wl.Experts))
		}
		for e, we := range wl.Experts {
			ge := gl.Experts[e]
			matrix("w1", we.W1, ge.W1)
			floats("b1", we.B1, ge.B1)
			matrix("w2", we.W2, ge.W2)
			floats("b2", we.B2, ge.B2)
			if we.Frozen != ge.Frozen || !reflect.DeepEqual(we.MergedFrom, ge.MergedFrom) {
				t.Fatalf("layer %d expert %d: frozen %v merged %v, want %v %v", l, e, ge.Frozen, ge.MergedFrom, we.Frozen, we.MergedFrom)
			}
		}
	}
}

// TestCodecRoundTripsBitForBit: a model holding NaN payloads, −0, ±Inf and
// subnormals, and the same model customized, decode to their every bit, and
// re-encoding the decoded model gives the same bytes.
func TestCodecRoundTripsBitForBit(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *Model
	}{{"specials", codecModel(t)}, {"customized", customizedCodecModel(t)}} {
		m := tc.m
		t.Run(tc.name, func(t *testing.T) {
			blob, err := m.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeBytes(blob)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, m, got)
			again, err := got.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, again) {
				t.Fatal("encode → decode → encode changed the bytes")
			}
		})
	}
}

// TestDecodeIntoOverwritesInPlace: a blob decoded into a model of its config
// whose values differ leaves that model — its own tensors, not new ones —
// holding the blob's every bit, for a plain and a customized model, from
// bytes and from a stream. A blob of another config is refused, naming the
// config, and leaves the model as it was.
func TestDecodeIntoOverwritesInPlace(t *testing.T) {
	other, err := tinyModel(t, "other").EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, source := range sources {
		t.Run(source.name, func(t *testing.T) { decodeIntoOverwritesInPlace(t, other, source.reader) })
	}
}

func decodeIntoOverwritesInPlace(t *testing.T, other []byte, reader func([]byte) *codec.Reader) {
	for _, src := range []*Model{codecModel(t), customizedCodecModel(t)} {
		blob, err := src.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		dst := src.CloneInto(nil)
		dst.Embed.Data[1], dst.Layers[1].Experts[0].W2.Data[0] = 42, 42
		embed, w2 := &dst.Embed.Data[0], &dst.Layers[1].Experts[0].W2.Data[0]
		if got, err := DecodeInto(dst, reader(blob)); err != nil || got != dst {
			t.Fatalf("DecodeInto = %p, %v; want the target %p", got, err, dst)
		}
		if &dst.Embed.Data[0] != embed || &dst.Layers[1].Experts[0].W2.Data[0] != w2 {
			t.Fatal("DecodeInto replaced tensors it could have overwritten")
		}
		requireSameBits(t, src, dst)

		if _, err := DecodeInto(dst, reader(other)); err == nil || !strings.Contains(err.Error(), "holds model config") {
			t.Fatalf("DecodeInto of another config = %v, want an error naming the config", err)
		}
		requireSameBits(t, src, dst)
	}
}

// TestDecodeIntoZeroAllocs: decoding the LLaMA stand-in into a model of its
// config, as a TCP client does with every broadcast, allocates nothing.
func TestDecodeIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not compared under the race detector")
	}
	m := MustNew(SimConfigLLaMATrain(), tensor.Named("into"))
	blob, err := m.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	replica := m.CloneInto(nil)
	if n := testing.AllocsPerRun(5, func() { DecodeInto(replica, codec.NewReader(blob)) }); n != 0 {
		t.Fatalf("DecodeInto into a model of the same config made %v allocations, want 0", n)
	}
}

// TestDecodeStreamZeroAllocs: decoding the LLaMA stand-in from a stream, as a
// TCP client decodes every broadcast from its connection, into a model of
// its config allocates nothing once the stream's buffer exists, and leaves
// the replica holding the model's every bit.
func TestDecodeStreamZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not compared under the race detector")
	}
	m := MustNew(SimConfigLLaMATrain(), tensor.Named("stream"))
	blob, err := m.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	replica := MustNew(SimConfigLLaMATrain(), tensor.Named("stream-replica"))
	src := bytes.NewReader(blob)
	buf := bufio.NewReaderSize(src, 64<<10)
	decode := func() {
		src.Reset(blob)
		buf.Reset(src)
		if _, err := DecodeInto(replica, codec.NewStreamReader(buf, len(blob))); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(5, decode); n != 0 {
		t.Fatalf("a stream decode into a model of the same config made %v allocations, want 0", n)
	}
	requireSameBits(t, m, replica)
}

// TestEncodeViewsMatchBytes: the model written as the parts of a vectored
// write is EncodeBytes' encoding, its floats views of the model's tensors, and
// a kept Writer writes it again without allocating.
func TestEncodeViewsMatchBytes(t *testing.T) {
	for _, m := range []*Model{codecModel(t), customizedCodecModel(t), MustNew(SimConfigLLaMATrain(), tensor.Named("views"))} {
		blob, err := m.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		w := codec.Writer{Views: true}
		encode := func() {
			w.Reset()
			if err := m.AppendEncoded(&w); err != nil {
				t.Fatal(err)
			}
		}
		encode()
		if !bytes.Equal(bytes.Join(w.Parts(), nil), blob) {
			t.Fatalf("%s: the parts differ from EncodeBytes' bytes", m.Cfg.Name)
		}
		views := w.Parts()[1]
		if binary.NativeEndian.Uint16([]byte{1, 0}) == 1 && &views[0] != &codec.FloatBytes(m.Embed.Data)[0] {
			t.Fatalf("%s: the embedding was copied, not viewed", m.Cfg.Name)
		}
		if n := testing.AllocsPerRun(5, encode); !raceEnabled && n != 0 {
			t.Fatalf("%s: a kept Writer made %v allocations, want 0", m.Cfg.Name, n)
		}
	}
}

// TestDecodeRejectsTruncatedAndTrailing: every strict prefix of a valid blob,
// and the blob with one byte appended, fail to decode with an error.
func TestDecodeRejectsTruncatedAndTrailing(t *testing.T) {
	for _, m := range []*Model{codecModel(t), customizedCodecModel(t)} {
		blob, err := m.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		for n := range len(blob) {
			if _, err := DecodeBytes(blob[:n]); err == nil {
				t.Fatalf("a %d-byte prefix of a %d-byte blob decoded", n, len(blob))
			}
		}
		if _, err := DecodeBytes(append(blob, 0)); err == nil {
			t.Fatal("a blob with a trailing byte decoded")
		}
	}
}

// TestDecodeRefusesLengthBeyondInput: an embed tensor claiming one element
// more than the bytes after its length field hold is refused before its
// storage is allocated — with no more allocations than a claim of 2^60
// elements, which no allocation could satisfy.
func TestDecodeRefusesLengthBeyondInput(t *testing.T) {
	m := tinyModel(t, "refuse")
	blob, err := m.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	lengthAt := modelSize(m.Cfg, 0) - 2*matrixSize(0) - 8 + 16 // the embed matrix's element count
	if got := binary.LittleEndian.Uint64(blob[lengthAt:]); got != uint64(len(m.Embed.Data)) {
		t.Fatalf("length field reads %d, want the embed's %d", got, len(m.Embed.Data))
	}
	claim := func(n uint64) []byte {
		bad := bytes.Clone(blob)
		binary.LittleEndian.PutUint64(bad[lengthAt:], n)
		if _, err := DecodeBytes(bad); err == nil {
			t.Fatalf("an embed of %d elements decoded from %d bytes", n, len(bad))
		}
		return bad
	}
	oneMore := claim(uint64((len(blob)-lengthAt-8)/8 + 1))
	huge := claim(1 << 60)
	if raceEnabled {
		t.Skip("allocation counts are not compared under the race detector")
	}
	if a, b := testing.AllocsPerRun(20, func() { DecodeBytes(oneMore) }), testing.AllocsPerRun(20, func() { DecodeBytes(huge) }); a != b {
		t.Fatalf("refusing one element too many made %v allocations, refusing 2^60 %v", a, b)
	}
}

// TestEncodedSize: EncodedSize is the exact length of EncodeBytes' output for
// every stand-in config as New builds it, and encoding makes one allocation.
func TestEncodedSize(t *testing.T) {
	for _, cfg := range []Config{tinyConfig(), SimConfigLLaMATrain(), SimConfigDeepSeekTrain(), SimConfigLLaMAProfile()} {
		m := MustNew(cfg, tensor.Named("size"))
		blob, err := m.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != EncodedSize(cfg) || cap(blob) != len(blob) {
			t.Errorf("%s: EncodeBytes wrote %d bytes into %d, EncodedSize says %d", cfg.Name, len(blob), cap(blob), EncodedSize(cfg))
		}
		if cfg.Name == SimConfigLLaMATrain().Name {
			if allocs := testing.AllocsPerRun(5, func() { m.EncodeBytes() }); allocs != 1 {
				t.Errorf("EncodeBytes made %v allocations, want 1", allocs)
			}
		}
	}
}

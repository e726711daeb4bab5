package data

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestProfilesDistinct(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("want 4 profiles, got %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if names[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		names[p.Name] = true
		if p.TargetAcc <= 0 || p.TargetAcc > 1 {
			t.Fatalf("%s target %v out of range", p.Name, p.TargetAcc)
		}
	}
	// Paper's targets are preserved as PaperTarget; sim targets are lower.
	//fluxvet:unordered independent per-profile assertions; order cannot affect the verdict
	for name, want := range map[string]float64{"dolly": 0.5, "gsm8k": 0.62, "mmlu": 0.75, "piqa": 0.8} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.PaperTarget != want {
			t.Fatalf("%s paper target = %v want %v", name, p.PaperTarget, want)
		}
		if p.TargetAcc <= 0 || p.TargetAcc > p.PaperTarget {
			t.Fatalf("%s sim target %v must be in (0, %v]", name, p.TargetAcc, p.PaperTarget)
		}
	}
	if _, err := ProfileByName("imagenet"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestSequenceLengthOrdering(t *testing.T) {
	// Dolly sequences must be longer than PIQA's — the paper attributes
	// per-dataset cost differences to sequence length.
	g := tensor.NewRNG(1)
	dolly := Generate(Dolly(), 64, 50, g)
	piqa := Generate(PIQA(), 64, 50, g)
	avg := func(ds *Dataset) float64 {
		var s float64
		for _, x := range ds.Samples {
			s += float64(len(x.Prompt) + len(x.Completion))
		}
		return s / float64(len(ds.Samples))
	}
	if avg(dolly) <= avg(piqa) {
		t.Fatalf("dolly avg len %v should exceed piqa %v", avg(dolly), avg(piqa))
	}
}

func TestGenerateShapes(t *testing.T) {
	g := tensor.NewRNG(2)
	for _, p := range Profiles() {
		ds := Generate(p, 64, 30, g)
		if len(ds.Samples) != 30 {
			t.Fatalf("%s: %d samples", p.Name, len(ds.Samples))
		}
		for _, s := range ds.Samples {
			if len(s.Prompt) < p.PromptMin || len(s.Prompt) > p.PromptMax {
				t.Fatalf("%s: prompt len %d outside [%d,%d]", p.Name, len(s.Prompt), p.PromptMin, p.PromptMax)
			}
			if len(s.Completion) != p.TargetLen {
				t.Fatalf("%s: completion len %d", p.Name, len(s.Completion))
			}
			for _, tok := range s.Prompt {
				if tok < 0 || tok >= 64 {
					t.Fatalf("%s: token %d out of range", p.Name, tok)
				}
			}
			if p.Task == MultipleChoice {
				if len(s.Options) != p.Options {
					t.Fatalf("%s: %d options", p.Name, len(s.Options))
				}
				if s.Answer < 0 || s.Answer >= len(s.Options) {
					t.Fatalf("%s: answer %d out of range", p.Name, s.Answer)
				}
				for i, o := range s.Options {
					if i == s.Answer {
						continue
					}
					same := len(o) == len(s.Completion)
					if same {
						for j := range o {
							if o[j] != s.Completion[j] {
								same = false
								break
							}
						}
					}
					if same {
						t.Fatalf("%s: distractor %d equals answer", p.Name, i)
					}
				}
			} else if len(s.Options) != 0 {
				t.Fatalf("%s: generation sample has options", p.Name)
			}
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := Generate(GSM8K(), 64, 10, tensor.Named("det"))
	b := Generate(GSM8K(), 64, 10, tensor.Named("det"))
	for i := range a.Samples {
		sa, sb := a.Samples[i], b.Samples[i]
		if sa.Topic != sb.Topic || len(sa.Prompt) != len(sb.Prompt) {
			t.Fatal("generation not deterministic")
		}
		for j := range sa.Prompt {
			if sa.Prompt[j] != sb.Prompt[j] {
				t.Fatal("prompt tokens differ")
			}
		}
	}
}

// TestFullSequenceBuiltOnce pins FullSequence's cache: a generated sample
// returns the same slices, without allocating, equal to what a hand-built
// copy of the sample computes afresh, and with no spare capacity an append
// could write into.
func TestFullSequenceBuiltOnce(t *testing.T) {
	ds := Generate(MMLU(), 64, 4, tensor.NewRNG(4))
	for _, s := range ds.Samples {
		seq, mask := s.FullSequence()
		again, againMask := s.FullSequence()
		if &seq[0] != &again[0] || &mask[0] != &againMask[0] {
			t.Fatal("a generated sample rebuilt its sequence")
		}
		if cap(seq) != len(seq) || cap(mask) != len(mask) {
			t.Fatalf("cached slices have spare capacity: %d/%d and %d/%d", len(seq), cap(seq), len(mask), cap(mask))
		}
		fresh := &Sample{Prompt: s.Prompt, Completion: s.Completion}
		wantSeq, wantMask := fresh.FullSequence()
		if !slices.Equal(seq, wantSeq) || !slices.Equal(mask, wantMask) {
			t.Fatal("the cached pair differs from one built afresh")
		}
		if n := testing.AllocsPerRun(10, func() { s.FullSequence() }); n != 0 {
			t.Fatalf("FullSequence allocates %v times on a generated sample", n)
		}
	}
}

func TestFullSequenceMask(t *testing.T) {
	g := tensor.NewRNG(3)
	ds := Generate(Dolly(), 64, 5, g)
	s := ds.Samples[0]
	seq, mask := s.FullSequence()
	if len(seq) != len(s.Prompt)+len(s.Completion) {
		t.Fatalf("seq len %d", len(seq))
	}
	if len(mask) != len(seq) {
		t.Fatal("mask length mismatch")
	}
	// Exactly len(Completion) masked positions: predictions of completion tokens.
	var n int
	for _, b := range mask {
		if b {
			n++
		}
	}
	if n != len(s.Completion) {
		t.Fatalf("masked %d positions, want %d", n, len(s.Completion))
	}
	// First masked position predicts the first completion token.
	if !mask[len(s.Prompt)-1] {
		t.Fatal("mask should start at last prompt position")
	}
	if mask[len(seq)-1] {
		t.Fatal("last position predicts nothing; must be unmasked")
	}
}

func TestSplitFractions(t *testing.T) {
	g := tensor.NewRNG(4)
	ds := Generate(MMLU(), 64, 100, g)
	train, test := ds.Split(0.8, g)
	if len(train) != 80 || len(test) != 20 {
		t.Fatalf("split %d/%d", len(train), len(test))
	}
	seen := map[int]bool{}
	for _, s := range append(append([]*Sample(nil), train...), test...) {
		if seen[s.ID] {
			t.Fatal("sample appears twice after split")
		}
		seen[s.ID] = true
	}
}

func TestPartitionNonIIDSkew(t *testing.T) {
	g := tensor.NewRNG(5)
	ds := Generate(Dolly(), 64, 400, g)
	parts := PartitionNonIID(ds.Samples, 10, 0.1, g)
	if len(parts) != 10 {
		t.Fatalf("%d parts", len(parts))
	}
	total := 0
	for _, p := range parts {
		if len(p) == 0 {
			t.Fatal("empty partition")
		}
		total += len(p)
	}
	if total != 400 {
		t.Fatalf("partition lost samples: %d", total)
	}
	// With alpha=0.1 local topic distributions should be skewed: on average
	// the most frequent topic should dominate a shard far beyond uniform.
	var domSum float64
	for _, p := range parts {
		h := TopicHistogram(p, Dolly().Topics)
		mx := 0
		for _, c := range h {
			if c > mx {
				mx = c
			}
		}
		domSum += float64(mx) / float64(len(p))
	}
	if avg := domSum / 10; avg < 0.3 {
		t.Fatalf("non-IID partition not skewed enough: dominant topic share %v", avg)
	}
}

func TestPartitionIIDish(t *testing.T) {
	// Large alpha approaches uniform.
	g := tensor.NewRNG(6)
	ds := Generate(Dolly(), 64, 1000, g)
	parts := PartitionNonIID(ds.Samples, 5, 100, g)
	for _, p := range parts {
		if math.Abs(float64(len(p))-200) > 120 {
			t.Fatalf("alpha=100 shard size %d too far from 200", len(p))
		}
	}
}

func TestPartitionPanicsOnZeroParts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PartitionNonIID(nil, 0, 1, tensor.NewRNG(1))
}

func TestChainTokensInRange(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		ds := Generate(GSM8K(), 32, 5, g)
		for _, s := range ds.Samples {
			seq, _ := s.FullSequence()
			for _, tok := range seq {
				if tok < 0 || tok >= 32 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TopicHistogram counts samples per topic; useful for verifying non-IID skew.
func TopicHistogram(samples []*Sample, topics int) []int {
	h := make([]int, topics)
	for _, s := range samples {
		if s.Topic < topics {
			h[s.Topic]++
		}
	}
	return h
}

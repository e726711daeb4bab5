// Package data generates the synthetic federated workloads that substitute
// for the paper's Dolly, GSM8K, MMLU, and PIQA datasets.
//
// Each dataset profile defines a family of latent "topics". A topic is a
// noisy affine Markov chain over the token vocabulary: given token v, the
// next token is (a·v + b) mod V with high probability and a Zipf-distributed
// random token otherwise. This gives sequences that a small language model
// can genuinely learn (the affine backbone) while remaining diverse (the
// noise and the Zipf marginals), and it gives topics that activate different
// experts — the property non-IID federated learning experiments need.
//
// The four profiles differ in the statistics that drive the paper's
// per-dataset differences: sequence length (Dolly long, PIQA short), task
// structure (generation vs. multiple choice), topic count, and noise level.
package data

import (
	"fmt"

	"repro/internal/tensor"
)

// TaskKind distinguishes generation tasks (scored with ROUGE-L) from
// multiple-choice tasks (scored with accuracy).
type TaskKind int

// Supported task kinds.
const (
	Generation TaskKind = iota
	MultipleChoice
)

func (k TaskKind) String() string {
	if k == Generation {
		return "generation"
	}
	return "multiple-choice"
}

// Profile describes a synthetic dataset family.
type Profile struct {
	Name      string
	Task      TaskKind
	Topics    int // latent topic count (drives non-IID structure)
	PromptMin int // prompt length range
	PromptMax int
	TargetLen int     // completion length (generation) / option length (MC)
	Options   int     // options per question (MC only)
	Noise     float64 // probability a chain step deviates from the backbone
	ZipfExp   float64 // vocabulary skew of noise tokens
	// TargetAcc is the time-to-accuracy threshold used by the experiments at
	// this substrate's scale; PaperTarget is the corresponding target from
	// §8.1 of the paper (reported for reference — the tiny models here
	// cannot reach LLM-scale absolute scores, so targets are recalibrated
	// while preserving the per-dataset ordering and task metric).
	TargetAcc   float64
	PaperTarget float64
	MetricName  string // "ROUGE-L" or "Accuracy"
}

// The four dataset profiles; paper targets from §8.1.

// Dolly mimics an open-ended instruction dataset: long sequences,
// generation task (paper target ROUGE-L 0.5).
func Dolly() Profile {
	return Profile{Name: "dolly", Task: Generation, Topics: 8,
		PromptMin: 24, PromptMax: 36, TargetLen: 10, Noise: 0.15, ZipfExp: 1.2,
		TargetAcc: 0.20, PaperTarget: 0.5, MetricName: "ROUGE-L"}
}

// GSM8K mimics grade-school math: short, highly structured sequences,
// generation task (paper target 0.62).
func GSM8K() Profile {
	return Profile{Name: "gsm8k", Task: Generation, Topics: 6,
		PromptMin: 12, PromptMax: 18, TargetLen: 8, Noise: 0.05, ZipfExp: 1.4,
		TargetAcc: 0.33, PaperTarget: 0.62, MetricName: "Accuracy"}
}

// MMLU mimics a broad multiple-choice benchmark: many topics, 4 options
// (paper target 0.75; chance is 0.25).
func MMLU() Profile {
	return Profile{Name: "mmlu", Task: MultipleChoice, Topics: 12,
		PromptMin: 18, PromptMax: 28, TargetLen: 6, Options: 4, Noise: 0.10,
		ZipfExp: 1.1, TargetAcc: 0.60, PaperTarget: 0.75, MetricName: "Accuracy"}
}

// PIQA mimics physical commonsense QA: short prompts, 2 options
// (paper target 0.8; chance is 0.5).
func PIQA() Profile {
	return Profile{Name: "piqa", Task: MultipleChoice, Topics: 6,
		PromptMin: 10, PromptMax: 16, TargetLen: 5, Options: 2, Noise: 0.10,
		ZipfExp: 1.3, TargetAcc: 0.75, PaperTarget: 0.8, MetricName: "Accuracy"}
}

// Generic is the pre-training corpus profile: a broad mixture of topics
// disjoint (by seed) from every fine-tuning dataset, standing in for the
// base model's original pre-training distribution.
func Generic() Profile {
	return Profile{Name: "generic", Task: Generation, Topics: 16,
		PromptMin: 24, PromptMax: 40, TargetLen: 8, Noise: 0.10, ZipfExp: 1.1,
		TargetAcc: 0, MetricName: "loss"}
}

// Profiles returns all four dataset profiles in the paper's order.
func Profiles() []Profile {
	return []Profile{Dolly(), GSM8K(), MMLU(), PIQA()}
}

// ProfileByName looks a profile up by its dataset name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("data: unknown dataset %q", name)
}

// Sample is one task instance.
type Sample struct {
	ID         int
	Topic      int
	Prompt     []int
	Completion []int   // generation reference
	Options    [][]int // MC candidate continuations
	Answer     int     // index into Options of the correct one

	// seq and mask are FullSequence's result, built once by Generate.
	seq  []int
	mask []bool
}

// Dataset is a generated corpus plus the topic chains that produced it.
type Dataset struct {
	Profile Profile
	Vocab   int
	Samples []*Sample

	chains []chain
}

type chain struct {
	a, b int // affine successor map: next = (a·v + b) mod V
}

func (c chain) next(v, vocab int) int { return (c.a*v + c.b) % vocab }

// Generate builds a dataset of n samples over the given vocabulary.
func Generate(p Profile, vocab, n int, g *tensor.RNG) *Dataset {
	ds := &Dataset{Profile: p, Vocab: vocab, chains: make([]chain, p.Topics)}
	for t := range ds.chains {
		// Odd multiplier keeps the affine map a permutation for even vocab.
		ds.chains[t] = chain{a: 2*g.Intn(vocab/2) + 1, b: g.Intn(vocab)}
	}
	for i := 0; i < n; i++ {
		ds.Samples = append(ds.Samples, ds.sample(i, g))
	}
	return ds
}

func (ds *Dataset) sample(id int, g *tensor.RNG) *Sample {
	p := ds.Profile
	topic := g.Intn(p.Topics)
	plen := p.PromptMin
	if p.PromptMax > p.PromptMin {
		plen += g.Intn(p.PromptMax - p.PromptMin)
	}
	s := &Sample{ID: id, Topic: topic}
	s.Prompt = ds.walk(topic, g.Zipf(ds.Vocab, p.ZipfExp), plen, g)
	last := s.Prompt[len(s.Prompt)-1]
	s.Completion = ds.walk(topic, ds.chains[topic].next(last, ds.Vocab), p.TargetLen, g)

	if p.Task == MultipleChoice {
		s.Options = make([][]int, p.Options)
		s.Answer = g.Intn(p.Options)
		for o := range s.Options {
			if o == s.Answer {
				s.Options[o] = s.Completion
				continue
			}
			// Distractor: same topic's chain, but entered at a random token
			// rather than the prompt's successor. Marginal statistics match
			// the answer, so only a model that has learned the transition
			// function can separate them — untrained models score at chance.
			start := (ds.chains[topic].next(last, ds.Vocab) + 1 + g.Intn(ds.Vocab-1)) % ds.Vocab
			s.Options[o] = ds.walk(topic, start, p.TargetLen, g)
		}
	}
	s.seq, s.mask = s.fullSequence()
	return s
}

// walk produces a length-n token sequence from topic's chain starting at
// start, deviating with probability Noise.
func (ds *Dataset) walk(topic, start, n int, g *tensor.RNG) []int {
	p := ds.Profile
	out := make([]int, n)
	v := start % ds.Vocab
	for i := 0; i < n; i++ {
		out[i] = v
		if g.Float64() < p.Noise {
			v = g.Zipf(ds.Vocab, p.ZipfExp)
		} else {
			v = ds.chains[topic].next(v, ds.Vocab)
		}
	}
	return out
}

// FullSequence returns the training sequence for s (prompt ++ completion)
// and a loss mask that restricts the loss to completion predictions, i.e.
// positions whose next token lies in the completion region. A generated
// sample returns the pair Generate built, shared by every caller, so
// callers must not write to either slice (each has no room to append in
// place); samples are read concurrently, so nothing is built on first use.
// A sample built by hand gets a fresh pair on every call.
func (s *Sample) FullSequence() (seq []int, mask []bool) {
	if s.seq != nil {
		return s.seq, s.mask
	}
	return s.fullSequence()
}

// fullSequence builds FullSequence's pair, each slice at exactly its length.
func (s *Sample) fullSequence() (seq []int, mask []bool) {
	seq = make([]int, 0, len(s.Prompt)+len(s.Completion))
	seq = append(append(seq, s.Prompt...), s.Completion...)
	mask = make([]bool, len(seq))
	for t := len(s.Prompt) - 1; t < len(seq)-1; t++ {
		mask[t] = true
	}
	return seq, mask
}

// Split partitions the dataset into train/test by the given train fraction,
// deterministically shuffled by g.
func (ds *Dataset) Split(trainFrac float64, g *tensor.RNG) (train, test []*Sample) {
	idx := g.Perm(len(ds.Samples))
	cut := int(trainFrac * float64(len(ds.Samples)))
	for i, j := range idx {
		if i < cut {
			train = append(train, ds.Samples[j])
		} else {
			test = append(test, ds.Samples[j])
		}
	}
	return train, test
}

// PartitionNonIID splits samples across parts participants following the
// FedNLP recipe: a symmetric Dirichlet(alpha) prior over topics per
// participant, so small alpha yields highly skewed local distributions.
// Every participant receives at least one sample.
func PartitionNonIID(samples []*Sample, parts int, alpha float64, g *tensor.RNG) [][]*Sample {
	if parts <= 0 {
		panic("data: parts must be positive")
	}
	out := make([][]*Sample, parts)
	// Per-participant topic preference.
	prefs := make([][]float64, parts)
	topics := 0
	for _, s := range samples {
		if s.Topic >= topics {
			topics = s.Topic + 1
		}
	}
	if topics == 0 {
		topics = 1
	}
	for i := range prefs {
		prefs[i] = g.Dirichlet(alpha, topics)
	}
	// Assign each sample to a participant ∝ participant preference for its topic.
	weights := make([]float64, parts)
	for _, s := range samples {
		var sum float64
		for i := range weights {
			weights[i] = prefs[i][s.Topic]
			sum += weights[i]
		}
		u := g.Float64() * sum
		var cum float64
		pick := parts - 1
		for i, w := range weights {
			cum += w
			if u <= cum {
				pick = i
				break
			}
		}
		out[pick] = append(out[pick], s)
	}
	// Rebalance empties: steal one sample from the largest shard.
	for i := range out {
		if len(out[i]) > 0 {
			continue
		}
		big := 0
		for j := range out {
			if len(out[j]) > len(out[big]) {
				big = j
			}
		}
		if len(out[big]) > 1 {
			n := len(out[big])
			out[i] = append(out[i], out[big][n-1])
			out[big] = out[big][:n-1]
		}
	}
	return out
}

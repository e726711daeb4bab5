// Package moe implements a small but genuinely trainable Mixture-of-Experts
// transformer language model: top-k softmax gating, per-expert two-layer FFNs,
// a single-head attention block that exposes per-token attention scores, a
// manual backward pass, and SGD fine-tuning restricted to expert parameters.
//
// This is the substrate the Flux reproduction runs on. It substitutes for
// PyTorch + LLaMA-MoE/DeepSeek-MoE in the paper: the mechanisms Flux relies
// on (skewed expert activation, activation drift across rounds, error
// accumulation when early layers are perturbed, attention-weighted expert
// significance) all emerge from real forward/backward computation here, just
// at laptop scale.
//
// Two deliberate simplifications are made in the backward pass, both standard
// practice: gradients are not propagated through the softmax routing
// probabilities (gates are never trained, as in the paper's expert-only
// fine-tuning), and attention probabilities are treated as constants in
// backward (straight-through), so gradients flow through the value path only.
package moe

import "fmt"

// Config describes an MoE transformer architecture.
//
// ExpertsPerLayer allows a different expert count in every layer — the
// "customized MoE construction" capability the paper's implementation section
// calls out (Flux.moe.customized_moe). Uniform models just repeat one value.
type Config struct {
	Name            string
	VocabSize       int
	Dim             int   // residual stream width
	FFNDim          int   // expert hidden width
	ExpertsPerLayer []int // experts in each layer; len() == #layers
	TopK            int   // experts activated per token
	MaxSeqLen       int
}

// Layers returns the number of transformer layers.
func (c Config) Layers() int { return len(c.ExpertsPerLayer) }

// Uniform builds a config with the same number of experts in every layer.
func Uniform(name string, vocab, dim, ffn, layers, experts, topK, seqLen int) Config {
	epl := make([]int, layers)
	for i := range epl {
		epl[i] = experts
	}
	return Config{
		Name:            name,
		VocabSize:       vocab,
		Dim:             dim,
		FFNDim:          ffn,
		ExpertsPerLayer: epl,
		TopK:            topK,
		MaxSeqLen:       seqLen,
	}
}

// Validate reports the first configuration error found, or nil.
func (c Config) Validate() error {
	switch {
	case c.VocabSize <= 0:
		return fmt.Errorf("moe: vocab size %d must be positive", c.VocabSize)
	case c.Dim <= 0 || c.FFNDim <= 0:
		return fmt.Errorf("moe: dims %d/%d must be positive", c.Dim, c.FFNDim)
	case len(c.ExpertsPerLayer) == 0:
		return fmt.Errorf("moe: model needs at least one layer")
	case c.TopK <= 0:
		return fmt.Errorf("moe: topK %d must be positive", c.TopK)
	case c.MaxSeqLen <= 1:
		return fmt.Errorf("moe: max sequence length %d must exceed 1", c.MaxSeqLen)
	}
	for l, e := range c.ExpertsPerLayer {
		if e <= 0 {
			return fmt.Errorf("moe: layer %d has %d experts", l, e)
		}
		if c.TopK > e {
			return fmt.Errorf("moe: topK %d exceeds %d experts in layer %d", c.TopK, e, l)
		}
	}
	return nil
}

// ExpertParams returns the parameter count of a single expert.
func (c Config) ExpertParams() int {
	return c.Dim*c.FFNDim + c.FFNDim + c.FFNDim*c.Dim + c.Dim
}

// TotalParams returns the full model parameter count.
func (c Config) TotalParams() int {
	p := 2 * c.VocabSize * c.Dim // embedding + head
	for _, e := range c.ExpertsPerLayer {
		p += 3 * c.Dim * c.Dim // Wq, Wk, Wv
		p += c.Dim * e         // gate
		p += e * c.ExpertParams()
	}
	return p
}

// CatalogEntry is one row of the paper's Table 1: a published MoE LLM with
// its real layer/expert topology and size. These are reference metadata, not
// runnable configs; see SimConfig* for the trainable scaled-down equivalents.
type CatalogEntry struct {
	Name    string
	Layers  int
	Experts int
	Params  float64 // billions
	SizeGB  float64 // FP16 checkpoint size
}

// Catalog reproduces Table 1 of the paper. Sizes are params × 2 bytes (FP16).
func Catalog() []CatalogEntry {
	mk := func(name string, l, e int, paramsB float64) CatalogEntry {
		return CatalogEntry{Name: name, Layers: l, Experts: e, Params: paramsB,
			SizeGB: paramsB * 2 * 1e9 / (1 << 30)}
	}
	return []CatalogEntry{
		mk("LLaMA-MoE", 32, 16, 6.7),
		mk("DeepSeek-MoE", 28, 64, 16.4),
		mk("DeepSeek-v2-lite", 27, 64, 15.7),
		mk("Mixtral-8x7B", 64, 8, 46.7),
		mk("Qwen2-MoE", 28, 64, 57.4),
	}
}

// SimConfigLLaMAProfile is the topology-faithful LLaMA-MoE stand-in used for
// forward-only experiments (activation profiling, merging error): 32 layers
// of 16 experts, matching the paper's layer/expert structure exactly, at a
// small hidden width.
func SimConfigLLaMAProfile() Config {
	return Uniform("llama-moe-profile", 48, 16, 32, 32, 16, 2, 64)
}

// SimConfigLLaMATrain is the reduced LLaMA-MoE stand-in used for convergence
// experiments, where thousands of real SGD steps must run: 6 layers × 8
// experts at a width the synthetic tasks are learnable at.
func SimConfigLLaMATrain() Config {
	return Uniform("llama-moe-sim", 48, 24, 48, 6, 8, 2, 64)
}

// SimConfigDeepSeekTrain is the DeepSeek-MoE stand-in: more experts per layer
// and a wider FFN, so rounds cost visibly more than the LLaMA stand-in, as in
// the paper's Figures 11/13.
func SimConfigDeepSeekTrain() Config {
	return Uniform("deepseek-moe-sim", 48, 24, 64, 8, 16, 2, 64)
}

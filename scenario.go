package flux

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Scenario is a JSON-serializable experiment description — the file format
// behind `fluxsim -scenario`. It bundles the experiment axes (method,
// dataset, model, scale) with a FleetSpec, so a heterogeneity study is a
// reviewable artifact instead of a flag soup. Zero fields keep their
// DefaultConfig values; unknown JSON fields are an error so typos surface at
// load time rather than as silently default behavior. See scenarios/ for
// shipped examples and the README for the schema.
type Scenario struct {
	// Name and Description label the scenario in output; Name is required.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Experiment axes; zero values fall back to DefaultConfig.
	Method  string `json:"method,omitempty"`
	Dataset string `json:"dataset,omitempty"`
	Model   string `json:"model,omitempty"`
	Seed    string `json:"seed,omitempty"`

	Rounds        int     `json:"rounds,omitempty"`
	Participants  int     `json:"participants,omitempty"`
	Batch         int     `json:"batch,omitempty"`
	LocalIters    int     `json:"local_iters,omitempty"`
	DatasetSize   int     `json:"dataset_size,omitempty"`
	EvalSubset    int     `json:"eval_subset,omitempty"`
	PretrainSteps int     `json:"pretrain_steps,omitempty"`
	LR            float64 `json:"lr,omitempty"`
	Alpha         float64 `json:"alpha,omitempty"`
	Target        float64 `json:"target,omitempty"`

	// Fleet is the heterogeneity under study: profiles, availability,
	// selection, deadline.
	Fleet FleetSpec `json:"fleet"`

	// Aggregation selects the server's aggregation mode (sync when omitted):
	//   {"mode": "async", "buffer_k": 8, "staleness_alpha": 0.5}
	// or {"mode": "semisync"} with a fleet deadline as the round clock.
	Aggregation AggregationSpec `json:"aggregation"`
}

// ParseScenario decodes a scenario from JSON, rejecting unknown fields and
// anything but whitespace after the one JSON value.
func ParseScenario(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("flux: parsing scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("flux: parsing scenario: data after the JSON value")
	}
	if s.Name == "" {
		return nil, fmt.Errorf("flux: scenario needs a name")
	}
	// Config() treats non-positive fields as "keep the default", so a
	// negative value would silently vanish — reject it here instead.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"rounds", float64(s.Rounds)}, {"participants", float64(s.Participants)},
		{"batch", float64(s.Batch)}, {"local_iters", float64(s.LocalIters)},
		{"dataset_size", float64(s.DatasetSize)}, {"eval_subset", float64(s.EvalSubset)},
		{"pretrain_steps", float64(s.PretrainSteps)}, {"lr", s.LR},
		{"alpha", s.Alpha}, {"target", s.Target},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("flux: scenario %q: %s %v must not be negative (omit the field to keep the default)", s.Name, f.name, f.v)
		}
	}
	if err := s.Config().Validate(); err != nil {
		return nil, fmt.Errorf("flux: scenario %q: %w", s.Name, err)
	}
	return &s, nil
}

// LoadScenario reads and decodes a scenario file.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("flux: reading scenario: %w", err)
	}
	s, err := ParseScenario(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return s, nil
}

// Config resolves the scenario onto DefaultConfig: set fields override, zero
// fields keep the defaults, and the seed defaults to "scenario/<name>".
func (s *Scenario) Config() Config {
	cfg := DefaultConfig()
	if s.Method != "" {
		cfg.Method = s.Method
	}
	if s.Dataset != "" {
		cfg.Dataset = s.Dataset
	}
	if s.Model != "" {
		cfg.Model = s.Model
	}
	cfg.Seed = s.Seed
	if cfg.Seed == "" {
		cfg.Seed = "scenario/" + s.Name
	}
	if s.Rounds > 0 {
		cfg.Rounds = s.Rounds
	}
	if s.Participants > 0 {
		cfg.Participants = s.Participants
	}
	if s.Batch > 0 {
		cfg.Batch = s.Batch
	}
	if s.LocalIters > 0 {
		cfg.LocalIters = s.LocalIters
	}
	if s.DatasetSize > 0 {
		cfg.DatasetSize = s.DatasetSize
	}
	if s.EvalSubset > 0 {
		cfg.EvalSubset = s.EvalSubset
	}
	if s.PretrainSteps > 0 {
		cfg.PretrainSteps = s.PretrainSteps
	}
	if s.LR > 0 {
		cfg.LR = s.LR
	}
	if s.Alpha > 0 {
		cfg.Alpha = s.Alpha
	}
	if s.Target > 0 {
		cfg.Target = s.Target
	}
	cfg.Fleet = s.Fleet
	cfg.Aggregation = s.Aggregation
	return cfg
}

// Options lowers the scenario to experiment options, ready to compose with
// further overrides (`flux.New(append(s.Options(), flux.WithParallelism(1))...)`).
func (s *Scenario) Options() []Option {
	return []Option{WithConfig(s.Config())}
}

package flux_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	flux "repro"
)

const goldenRoundsPath = "testdata/golden_rounds.json"

// goldenRound is every simulated output of one round, floats as exact hex
// literals: what the server's round reduction produces beyond the score —
// simulated time, traffic, census, model versioning, and the phase map.
type goldenRound struct {
	Score          string   `json:"score"`
	SimHours       string   `json:"sim_hours"`
	UplinkBytes    string   `json:"uplink_bytes"`
	DownlinkBytes  string   `json:"downlink_bytes"`
	ExpertsTouched int      `json:"experts_touched"`
	Selected       int      `json:"selected"`
	Completed      int      `json:"completed"`
	Dropped        int      `json:"dropped"`
	ModelVersion   int      `json:"model_version"`
	Stale          int      `json:"stale"`
	Pending        int      `json:"pending"`
	Phases         []string `json:"phases"` // "phase=hexseconds", sorted by phase
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func goldenRoundOf(ev flux.RoundEvent) goldenRound {
	g := goldenRound{
		Score: hexFloat(ev.Score), SimHours: hexFloat(ev.SimHours),
		UplinkBytes: hexFloat(ev.UplinkBytes), DownlinkBytes: hexFloat(ev.DownlinkBytes),
		ExpertsTouched: ev.ExpertsTouched,
		Selected:       ev.Selected, Completed: ev.Completed, Dropped: ev.Dropped,
		ModelVersion: ev.ModelVersion, Stale: ev.Stale, Pending: ev.Pending,
		Phases: []string{},
	}
	//fluxvet:unordered entries are collected then sorted below
	for p, sec := range ev.Phases {
		g.Phases = append(g.Phases, p+"="+hexFloat(sec))
	}
	sort.Strings(g.Phases)
	return g
}

// goldenDropDeadlines are drop deadlines (simulated seconds) that cut some
// but not all of the 12-device longtail fleet for each method — the regime
// where straggler resolution, kept-only uplink, and the straggler-wait phase
// all matter.
var goldenDropDeadlines = map[string][]float64{
	"flux": {300, 500},
	"fmd":  {4000, 8000},
	"fmq":  {100, 150},
	"fmes": {150, 200},
}

// goldenRoundArms are the seeded runs pinned by testdata/golden_rounds.json,
// by name: the golden config for every built-in method, a longtail fleet
// under drop deadlines, and every shipped scenario.
func goldenRoundArms(t *testing.T) map[string]flux.Config {
	arms := make(map[string]flux.Config)
	for _, method := range goldenMethods {
		arms["golden/"+method] = goldenConfig(method)
		for _, deadline := range goldenDropDeadlines[method] {
			cfg := goldenConfig(method)
			cfg.Seed = "golden-rounds-v1"
			cfg.Participants = 12
			cfg.DatasetSize = 120
			cfg.Fleet = flux.FleetSpec{Distribution: "longtail", Seed: "golden", Deadline: deadline, Drop: true}
			arms[fmt.Sprintf("longtail-drop/%s/%gs", method, deadline)] = cfg
		}
	}
	files, err := filepath.Glob("scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped scenarios found (err %v)", err)
	}
	for _, f := range files {
		s, err := flux.LoadScenario(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		arms["scenario/"+s.Name] = s.Config()
	}
	return arms
}

// TestGoldenRounds pins every per-round simulated output of the engine —
// not only the score series TestGoldenConvergence covers, but simulated
// hours, uplink/downlink bytes, experts touched, the participation census,
// model version/stale/pending, and the full phase map — for all built-in
// methods, with and without deadline drops, and for every shipped scenario.
// It is the fixture a change to the round reduction is judged against: any
// drift, even in the last bit of a phase, fails. Regenerate after an
// intentional change with
//
//	go test -run TestGoldenRounds -update
//
// and say in CHANGES.md why the numbers moved. Pinned to amd64 like the
// other goldens.
func TestGoldenRounds(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*updateGolden {
		t.Skipf("golden values are pinned on amd64; %s may fuse FMA and drift in the last bit", runtime.GOARCH)
	}
	got := make(map[string][]goldenRound)
	//fluxvet:unordered arms run independently and results are keyed by name; order cannot affect them
	for name, cfg := range goldenRoundArms(t) {
		e, err := flux.New(flux.WithConfig(cfg))
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		partial := false
		for _, ev := range res.Events {
			got[name] = append(got[name], goldenRoundOf(ev))
			partial = partial || (ev.Dropped > 0 && ev.Completed > 1)
		}
		if strings.HasPrefix(name, "longtail-drop/") && !partial {
			t.Errorf("%s: no round dropped some-but-not-all participants; the deadline no longer exercises straggler resolution", name)
		}
	}

	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRoundsPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenRoundsPath)
		return
	}

	blob, err := os.ReadFile(goldenRoundsPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	want := make(map[string][]goldenRound)
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("parsing %s: %v", goldenRoundsPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%d arms ran, golden file has %d (regenerate with -update)", len(got), len(want))
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wantRounds, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden rounds committed (regenerate with -update)", name)
			continue
		}
		if len(got[name]) != len(wantRounds) {
			t.Errorf("%s: %d rounds, golden has %d", name, len(got[name]), len(wantRounds))
			continue
		}
		for r, g := range got[name] {
			if !reflect.DeepEqual(g, wantRounds[r]) {
				t.Errorf("%s: round %d drifted — if intentional, regenerate with -update\n got  %+v\n want %+v", name, r, g, wantRounds[r])
			}
		}
	}
}

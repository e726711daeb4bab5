package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"slices"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the figure golden file from the current implementation")

const goldenFiguresPath = "../../testdata/golden_figures.json"

// goldenFigure is one experiment's table as the golden file pins it.
type goldenFigure struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes"`
}

// figureTables runs every registered experiment at quick scale. Figure 16's
// wall-clock columns (everything after its budget column) are masked, since
// they time the clustering kernels on the host.
func figureTables(t *testing.T) []goldenFigure {
	var out []goldenFigure
	for _, id := range Order() {
		tab, err := Run(id, Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		rows := tab.Rows
		if id == "figure16" {
			rows = make([][]string, len(tab.Rows))
			for i, row := range tab.Rows {
				rows[i] = []string{row[0]}
				for range row[1:] {
					rows[i] = append(rows[i], "-")
				}
			}
		}
		out = append(out, goldenFigure{ID: id, Title: tab.Title, Header: tab.Header, Rows: rows, Notes: tab.Notes})
	}
	return out
}

// TestGoldenFigures pins every table and figure of the evaluation at quick
// scale, cell for cell, against testdata/golden_figures.json, so a refactor
// of the figure runners cannot silently move a reproduced number. After an
// intentional change to training math, regenerate with
//
//	go test ./internal/experiments -run TestGoldenFigures -update
//
// and commit the new file with an explanation of which figures moved and
// why. Like the other goldens it is pinned to amd64, and it does not run
// under the race detector, whose instrumentation would make the full suite
// take many minutes.
func TestGoldenFigures(t *testing.T) {
	if raceEnabled {
		t.Skip("the full figure suite is too slow under the race detector")
	}
	if runtime.GOARCH != "amd64" && !*updateGolden {
		t.Skipf("golden values are pinned on amd64; %s may fuse FMA and drift in the last bit", runtime.GOARCH)
	}
	got := figureTables(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(got); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	if *updateGolden {
		if err := os.WriteFile(goldenFiguresPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenFiguresPath)
		return
	}

	wantBlob, err := os.ReadFile(goldenFiguresPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if bytes.Equal(blob, wantBlob) {
		return
	}
	var want []goldenFigure
	dec := json.NewDecoder(bytes.NewReader(wantBlob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("parsing %s: %v", goldenFiguresPath, err)
	}
	if len(got) != len(want) {
		t.Errorf("%d experiments ran, golden file has %d (regenerate with -update)", len(got), len(want))
	}
	for i := range min(len(got), len(want)) {
		g, w := got[i], want[i]
		switch {
		case g.ID != w.ID:
			t.Errorf("experiment %d is %s, golden has %s", i, g.ID, w.ID)
		case g.Title != w.Title || !slices.Equal(g.Header, w.Header) || !slices.Equal(g.Notes, w.Notes):
			t.Errorf("%s: title, header or notes drifted\n got  %q %q %q\n want %q %q %q", g.ID, g.Title, g.Header, g.Notes, w.Title, w.Header, w.Notes)
		case !slices.EqualFunc(g.Rows, w.Rows, slices.Equal[[]string]):
			t.Errorf("%s: rows drifted — if intentional, regenerate with -update\n got  %q\n want %q", g.ID, g.Rows, w.Rows)
		}
	}
	if !t.Failed() {
		t.Errorf("%s differs from the current tables only in layout (regenerate with -update)", goldenFiguresPath)
	}
}

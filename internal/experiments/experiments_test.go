package experiments

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fleet"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "figure1", "figure2", "figure3", "figure5",
		"figure6", "figure8", "figure9", "figure10", "figure11", "table2",
		"figure12", "figure13", "figure14", "figure15", "figure16",
		"figure17", "figure18", "figure19", "figure20", "staleness"}
	if order := Order(); !slices.Equal(order, want) {
		t.Fatalf("Order() = %v, want %v", order, want)
	}
	for _, e := range registry {
		if e.gen == nil {
			t.Fatalf("experiment %s has no generator", e.id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("figure99", Options{Quick: true}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestTable1Content(t *testing.T) {
	tab, err := Run("table1", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if tab.Rows[0][0] != "LLaMA-MoE" || tab.Rows[0][1] != "32/16" {
		t.Fatalf("row 0 = %v", tab.Rows[0])
	}
}

func TestFigure1Monotone(t *testing.T) {
	tab := Figure1(Options{Quick: true})
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	prev := -1.0
	for _, row := range tab.Rows {
		total, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if total <= prev {
			t.Fatalf("cost must grow with experts: %v", tab.Rows)
		}
		prev = total
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{Title: "t", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== t ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestFigure16FusedFaster checks the table's shape on every run and the
// speedup itself on the sum over the four budgets: one budget's few
// milliseconds are at the mercy of a busy machine, and the race detector's
// instrumentation distorts the ratio enough that the timing is not asserted
// under it at all.
func TestFigure16FusedFaster(t *testing.T) {
	tab := Figure16(Options{Quick: true})
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	var perLayer, fused float64
	for _, row := range tab.Rows {
		var ms [3]float64
		for i := range ms {
			v, err := strconv.ParseFloat(row[i+1], 64)
			if err != nil {
				t.Fatalf("row %v: %v", row, err)
			}
			ms[i] = v
		}
		perLayer += ms[0]
		fused += ms[1]
	}
	if raceEnabled {
		t.Skip("wall-clock speedup not asserted under the race detector")
	}
	if perLayer <= fused {
		t.Fatalf("fused clustering should be faster over all budgets: per-layer %.2f ms vs fused %.2f ms; rows %v", perLayer, fused, tab.Rows)
	}
}

// TestOptionsFleetIsLive pins that Options.Fleet is reachable plumbing: it
// lands in the federated training config and distinguishes memoization keys,
// so two runs of the same experiment under different fleets never share a
// cached result.
func TestOptionsFleetIsLive(t *testing.T) {
	spec := fleet.Spec{Distribution: "longtail"}
	if got := trainConfig(Options{Fleet: spec}).Fleet.Distribution; got != "longtail" {
		t.Fatalf("fleet not plumbed into the train config: %q", got)
	}
	if specKey(spec) == specKey(fleet.Spec{}) {
		t.Fatal("memo key ignores the fleet spec")
	}
}

package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestSuppressionForIdleAnalyzerNotStale pins a filtering subtlety: a
// //fluxvet:allow comment for an analyzer that is not in the running set
// must be left alone, not reported as stale. (Running a single analyzer —
// as these fixture tests do — must not invalidate the tree's suppressions
// for the rest of the suite.)
func TestSuppressionForIdleAnalyzerNotStale(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "wallclock"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "repro/internal/fed")
	if err != nil {
		t.Fatal(err)
	}
	// The wallclock fixture contains a //fluxvet:allow wallclock comment;
	// running only maporder over it must produce zero findings — neither
	// map diagnostics (there are no maps) nor a stale-suppression report.
	diags, err := analysis.RunPackage(pkg, []*analysis.Analyzer{analysis.MapOrder})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d.Format(pkg.Fset))
	}
}

// TestSuppressEdgeCases runs the full suite over the suppress_edge fixture
// module: a finding double-covered by a file-wide and a same-line allow
// marks both as used (neither is stale), unknown and justification-less
// directives are flagged, an allow naming an analyzer the suite does not
// have is flagged, and a truly stale allow is reported.
func TestSuppressEdgeCases(t *testing.T) {
	analysistest.RunDir(t, analysistest.Fixture(t, "suppress_edge"), false, analysis.All())
}

// TestSubsetRunKeepsIdleSuppressions pins `-only` semantics over the same
// fixture: with only maporder running, the wallclock allows go unused but
// must not be reported stale, while directive-hygiene findings (the
// unknown-analyzer allow included) and the stale maporder allow still fire.
func TestSubsetRunKeepsIdleSuppressions(t *testing.T) {
	dir := analysistest.Fixture(t, "suppress_edge")
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.AnalyzePackages(pkgs, []*analysis.Analyzer{analysis.MapOrder})
	if err != nil {
		t.Fatal(err)
	}
	var staleMapOrder, unknown, unknownAnalyzer, invalid int
	for _, f := range findings {
		msg := f.Message
		switch {
		case strings.Contains(msg, "no wallclock finding here"):
			t.Errorf("wallclock allow reported stale in a maporder-only run: %s", f.Format(loader.Fset()))
		case strings.Contains(msg, "no maporder finding here"):
			staleMapOrder++
		case strings.Contains(msg, "unknown fluxvet directive"):
			unknown++
		case strings.Contains(msg, "names unknown analyzer"):
			unknownAnalyzer++
		case strings.Contains(msg, "needs an analyzer name and a written justification"):
			invalid++
		default:
			t.Errorf("unexpected finding: %s", f.Format(loader.Fset()))
		}
	}
	if staleMapOrder != 1 || unknown != 1 || unknownAnalyzer != 1 || invalid != 1 {
		t.Fatalf("got stale=%d unknown=%d unknownAnalyzer=%d invalid=%d, want 1 each", staleMapOrder, unknown, unknownAnalyzer, invalid)
	}
}

// TestAllOrderStable pins the suite listing: names are unique and the
// order deterministic, since CI output diffs depend on it.
func TestAllOrderStable(t *testing.T) {
	want := []string{"maporder", "wallclock", "globalrand", "strictdecode", "sharedwrite"}
	got := analysis.All()
	if len(got) != len(want) {
		t.Fatalf("All() = %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("%s: incomplete analyzer", a.Name)
		}
	}
}

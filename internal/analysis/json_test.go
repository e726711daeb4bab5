package analysis_test

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestJSONReport checks the machine-readable fluxvet -json shape: every
// finding — suppressed ones included, with their written reason — with
// fixture-relative file paths.
func TestJSONReport(t *testing.T) {
	dir := analysistest.Fixture(t, "wallclock")
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "repro/internal/fed")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.AnalyzePackages([]*analysis.Package{pkg}, []*analysis.Analyzer{analysis.WallClock})
	if err != nil {
		t.Fatal(err)
	}
	b, err := analysis.JSONReport(loader.Fset(), findings, dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []analysis.JSONFinding
	//fluxvet:allow strictdecode decoding the tool's own report to assert on it, not a config input; extra fields would be a bug in JSONReport itself, checked field-by-field below
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, b)
	}
	if len(got) == 0 {
		t.Fatal("no findings in report")
	}
	var sawSuppressed, sawOpen bool
	for _, f := range got {
		if f.File != "wallclock.go" {
			t.Errorf("file %q not relative to the fixture dir", f.File)
		}
		if f.Line <= 0 || f.Col <= 0 {
			t.Errorf("finding missing position: %+v", f)
		}
		if f.Analyzer != "wallclock" {
			t.Errorf("unexpected analyzer %q", f.Analyzer)
		}
		if f.Message == "" {
			t.Errorf("finding missing message: %+v", f)
		}
		if f.Suppressed {
			sawSuppressed = true
			if !strings.Contains(f.Reason, "real socket read deadline") {
				t.Errorf("suppressed finding lost its written reason: %+v", f)
			}
		} else {
			sawOpen = true
			if f.Reason != "" {
				t.Errorf("unsuppressed finding carries a reason: %+v", f)
			}
		}
	}
	if !sawSuppressed || !sawOpen {
		t.Fatalf("report must include both suppressed and open findings (suppressed=%v open=%v)", sawSuppressed, sawOpen)
	}
}

// TestJSONReportEmpty pins the empty-run shape: an empty array, not null.
func TestJSONReportEmpty(t *testing.T) {
	b, err := analysis.JSONReport(nil, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(b)) != "[]" {
		t.Fatalf("empty report = %q, want []", b)
	}
}

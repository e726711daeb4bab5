package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadPatternsAsGoVet: patterns mean what they mean to go vet, so an
// import path and a directory name the same package, and a pattern that
// matches nothing fails with an error that names it.
func TestLoadPatternsAsGoVet(t *testing.T) {
	load := func(pattern string) ([]*Package, error) {
		l, err := NewLoader("../..")
		if err != nil {
			t.Fatal(err)
		}
		return l.LoadPatterns(l.ModuleRoot(), pattern)
	}
	files := func(pattern string) []string {
		pkgs, err := load(pattern)
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		if len(pkgs) != 1 || pkgs[0].Path != "repro/internal/fed" {
			t.Fatalf("%s: loaded %d packages, want repro/internal/fed alone", pattern, len(pkgs))
		}
		var names []string
		for _, f := range pkgs[0].Files {
			names = append(names, pkgs[0].Fset.Position(f.Package).Filename)
		}
		return names
	}
	byPath, byDir := files("repro/internal/fed"), files("./internal/fed")
	if strings.Join(byPath, "\n") != strings.Join(byDir, "\n") {
		t.Errorf("import path loaded %v, directory loaded %v", byPath, byDir)
	}
	if _, err := load("./internal/nonexistent"); err == nil || !strings.Contains(err.Error(), "internal/nonexistent") {
		t.Errorf("pattern matching nothing: err = %v, want an error naming internal/nonexistent", err)
	}
}

func TestParseSuppression(t *testing.T) {
	cases := []struct {
		text     string
		analyzer string
		reason   string
		nil_     bool
	}{
		{"//fluxvet:unordered per-key writes", "maporder", "per-key writes", false},
		{"//fluxvet:unordered", "maporder", "", false},
		{"//fluxvet:allow wallclock real deadline", "wallclock", "real deadline", false},
		{"//fluxvet:allow", "", "", false},
		{"//fluxvet:allowx nope", "", "", true},
		{"//fluxvet:unorderedx nope", "", "", true},
		{"// plain comment", "", "", true},
	}
	for _, tc := range cases {
		s := parseSuppression(tc.text)
		if tc.nil_ {
			if s != nil {
				t.Errorf("%q: expected nil, got %+v", tc.text, s)
			}
			continue
		}
		if s == nil {
			t.Errorf("%q: expected suppression, got nil", tc.text)
			continue
		}
		if s.analyzer != tc.analyzer || s.reason != tc.reason {
			t.Errorf("%q: got (%q, %q), want (%q, %q)", tc.text, s.analyzer, s.reason, tc.analyzer, tc.reason)
		}
	}
}

// TestLoadResolvesReplaceTarget: a module that imports repro through a
// `replace repro => ../..` directive (examples/external_method) type-checks
// against the replace target, the repo's own root package.
func TestLoadResolvesReplaceTarget(t *testing.T) {
	l, err := NewLoader("../../examples/external_method")
	if err != nil {
		t.Fatal(err)
	}
	want, err := filepath.Abs("../../examples/external_method")
	if err != nil {
		t.Fatal(err)
	}
	if l.ModuleRoot() != want {
		t.Fatalf("ModuleRoot = %q, want %q", l.ModuleRoot(), want)
	}
	pkgs, err := l.LoadPatterns(l.ModuleRoot(), ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "example.com/fluxmethod" {
		t.Fatalf("loaded %d packages, want example.com/fluxmethod alone", len(pkgs))
	}
	repro, ok := l.cache["repro"]
	if !ok {
		t.Fatal("repro was not loaded as a dependency of example.com/fluxmethod")
	}
	if root := filepath.Dir(filepath.Dir(want)); repro.Dir != root {
		t.Errorf("repro loaded from %q, want the replace target %q", repro.Dir, root)
	}
}

// TestNewLoaderRejectsDirOutsideModule: a directory that no go.mod covers
// has no module to root the loader at.
func TestNewLoaderRejectsDirOutsideModule(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewLoader(dir); err == nil || !strings.Contains(err.Error(), "not inside a module") {
		t.Fatalf("NewLoader(%s): err = %v, want a not-inside-a-module error", dir, err)
	}
}

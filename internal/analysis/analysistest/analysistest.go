// Package analysistest runs a fluxvet analyzer over a testdata fixture
// package and compares its findings against expectations written in the
// fixture source, in the style of golang.org/x/tools/go/analysis/analysistest
// (which this module cannot depend on):
//
//	for k := range m { // want `map iterated in randomized order`
//
// Each `// want` comment holds one or more quoted regular expressions that
// must each be matched by a finding on that line; findings on lines with no
// matching expectation fail the test. Because the suite's suppression
// filtering runs too, fixtures can (and do) exercise the
// //fluxvet:unordered / //fluxvet:allow escape hatches, including the
// invalid- and stale-suppression diagnostics.
package analysistest

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// An expectation is one `// want` regexp at a file:line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture package at dir under import path asPath, applies
// the analyzer, and reports any mismatch between findings and the
// fixture's `// want` comments.
func Run(t *testing.T, dir, asPath string, a *analysis.Analyzer) {
	t.Helper()
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.RunPackage(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	match(t, loader.Fset(), diags, dir, false)
}

// RunDir loads the fixture module rooted at dir — the directory must hold
// its own go.mod — analyzes every package under it with the given analyzer
// set, and compares the unsuppressed findings against the `// want`
// comments of every fixture file. Unlike Run, this goes through pattern
// expansion and the fixture's own module path, as fluxvet does. With
// includeTests, _test.go files are loaded and their want comments counted.
func RunDir(t *testing.T, dir string, includeTests bool, analyzers []*analysis.Analyzer) {
	t.Helper()
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	if root := loader.ModuleRoot(); root != dir {
		t.Fatalf("fixture %s holds no go.mod of its own (its module is at %s)", dir, root)
	}
	loader.IncludeTests = includeTests
	pkgs, err := loader.LoadPatterns(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture module %s: %v", dir, err)
	}
	findings, err := analysis.AnalyzePackages(pkgs, analyzers)
	if err != nil {
		t.Fatalf("analyzing fixture module %s: %v", dir, err)
	}
	var diags []analysis.Diagnostic
	for _, f := range findings {
		if !f.Suppressed {
			diags = append(diags, f.Diagnostic)
		}
	}
	match(t, loader.Fset(), diags, dir, includeTests)
}

// match reports every diagnostic that no `// want` comment of the Go files
// under dir expects, and every want that no diagnostic matched. The wants
// come from a walk of dir, not from the loaded files, so a want in a file
// the loader wrongly skipped still fails; _test.go files count with
// includeTests.
func match(t *testing.T, fset *token.FileSet, diags []analysis.Diagnostic, dir string, includeTests bool) {
	t.Helper()
	var wants []*expectation
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && (includeTests || !strings.HasSuffix(path, "_test.go")) {
			wants = append(wants, parseWants(t, path)...)
		}
		return err
	})
	if err != nil {
		t.Fatalf("walking fixture: %v", err)
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		text := d.Analyzer + ": " + d.Message
		matched := false
		for _, w := range wants {
			if w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(text) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s: %s", pos, text)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// parseWants extracts `// want "re" "re"...` expectations from one file.
// Both interpreted (")  and raw (`) quoting are accepted.
func parseWants(t *testing.T, name string) []*expectation {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	var out []*expectation
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		_, after, ok := strings.Cut(line, "// want ")
		if !ok {
			continue
		}
		// A line holding nothing but the want comment states an expectation
		// for the NEXT line — used for findings that land on //fluxvet:
		// directive lines, where a trailing comment would be parsed as the
		// suppression's reason. Blank `//` separator lines (gofmt inserts
		// them before directives in doc comments) are stepped over.
		target := i + 1
		if strings.HasPrefix(strings.TrimSpace(line), "// want ") {
			target = i + 2
			for target-1 < len(lines) && strings.TrimSpace(lines[target-1]) == "//" {
				target++
			}
		}
		for rest := strings.TrimSpace(after); rest != ""; {
			lit, err := strconv.QuotedPrefix(rest)
			if err != nil || lit[0] == '\'' {
				t.Fatalf("%s:%d: malformed want clause at %q", name, i+1, rest)
			}
			rest = strings.TrimSpace(rest[len(lit):])
			lit, _ = strconv.Unquote(lit) // cannot fail: QuotedPrefix found a valid literal
			re, err := regexp.Compile(lit)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", name, i+1, err)
			}
			out = append(out, &expectation{file: name, line: target, re: re})
		}
	}
	return out
}

// Fixture returns the conventional fixture directory testdata/src/<name>,
// resolved relative to the caller's working directory (the package under
// test), and fails if it does not exist.
func Fixture(t *testing.T, name string) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err == nil {
		_, err = os.Stat(dir)
	}
	if err != nil {
		t.Fatalf("missing fixture: %v", err)
	}
	return dir
}

// Package analysis is fluxvet's analyzer suite: static checks that enforce
// the parts of this repository's determinism contract that no runtime test
// can pin down — sorted map iteration, simulated time only, pre-split RNG
// streams, strict config decoding, and disjoint writes in parallel
// participant bodies. The rest of the contract is pinned at run time:
// goldens on the default and purego builds, serial ≡ parallel and
// in-process ≡ TCP bit equality, and AllocsPerRun guards on every
// workspace entry point.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) so each checker reads like a standard
// go/analysis analyzer, but the module carries no external dependencies:
// the loader in loader.go gets its packages from `go list` and type-checks
// them with go/types. Every analyzer is intraprocedural and sees one
// requested package at a time; dependencies are type-checked but not
// analyzed.
//
// # Suppressions
//
// A finding can be suppressed with a justification comment on the flagged
// line or the line immediately above it:
//
//	//fluxvet:unordered <reason>          (sugar for: allow maporder)
//	//fluxvet:allow <analyzer> <reason>
//
// A suppression comment placed before the package clause suppresses the
// named analyzer for the whole file (used by real-time test harnesses such
// as fluxtest). The <reason> is mandatory — a suppression without a written
// justification is itself reported — and so is an allow naming an analyzer
// the suite does not have. A suppression that matches no finding of an
// analyzer in the running suite is reported as stale.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //fluxvet:allow comments.
	Name string
	// Doc is the analyzer's help text: first line is a one-sentence
	// summary, the rest elaborates the contract it enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Reportf.
	Run func(*Pass) error
}

// A Pass connects an Analyzer to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	run *runner
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.run.diags = append(p.run.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Format renders the diagnostic as file:line:col: analyzer: message.
func (d Diagnostic) Format(fset *token.FileSet) string {
	return fmt.Sprintf("%s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message)
}

// A Finding is a diagnostic plus the suppression outcome the runner
// attached to it. Suppressed findings are retained (rather than dropped)
// so machine-readable output can show what the tree's justifications are
// holding back; only unsuppressed findings fail a run.
type Finding struct {
	Diagnostic
	Suppressed bool
	// Reason is the suppression's written justification, when Suppressed.
	Reason string
}

// suppression is one parsed //fluxvet: comment.
type suppression struct {
	pos      token.Pos // of the comment itself
	file     string    // filename the comment lives in
	line     int       // line of the comment
	analyzer string    // which analyzer it silences
	reason   string    // written justification (empty = invalid)
	fileWide bool      // comment precedes the package clause
	unknown  bool      // unrecognized //fluxvet: directive
	used     bool
}

const (
	allowPrefix     = "//fluxvet:allow"
	unorderedPrefix = "//fluxvet:unordered"
	directivePrefix = "//fluxvet:"
)

// parseSuppressions extracts every //fluxvet: comment from a file.
// Unrecognized //fluxvet: directives come back with unknown set, so typos
// fail loudly instead of silently suppressing nothing.
func parseSuppressions(fset *token.FileSet, f *ast.File) []*suppression {
	var out []*suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			s := parseSuppression(c.Text)
			if s == nil {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				s = &suppression{unknown: true}
			}
			pos := fset.Position(c.Pos())
			s.pos = c.Pos()
			s.file = pos.Filename
			s.line = pos.Line
			s.fileWide = c.Pos() < f.Package
			out = append(out, s)
		}
	}
	return out
}

// parseSuppression parses one comment's text, returning nil if it is not a
// suppression directive. Directives with a missing analyzer name or empty
// reason come back with those fields empty; the runner reports them as
// invalid.
func parseSuppression(text string) *suppression {
	switch {
	case strings.HasPrefix(text, unorderedPrefix):
		rest := strings.TrimPrefix(text, unorderedPrefix)
		if rest != "" && !strings.HasPrefix(rest, " ") {
			return nil // e.g. //fluxvet:unorderedX — not a directive
		}
		return &suppression{analyzer: "maporder", reason: strings.TrimSpace(rest)}
	case strings.HasPrefix(text, allowPrefix):
		rest := strings.TrimPrefix(text, allowPrefix)
		if rest != "" && !strings.HasPrefix(rest, " ") {
			return nil
		}
		fields := strings.Fields(rest)
		s := &suppression{}
		if len(fields) > 0 {
			s.analyzer = fields[0]
			s.reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
		}
		return s
	}
	return nil
}

// All returns the full fluxvet suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		WallClock,
		GlobalRand,
		StrictDecode,
		SharedWrite,
	}
}

// Package analysis is fluxvet's analyzer suite: static checks that enforce
// this repository's determinism contract (serial ≡ parallel bit-equality,
// sorted map iteration, pre-split RNG streams, simulated time only, strict
// scenario decoding) and its hot-path performance contract (zero-alloc
// forward/backward, no retained workspace aliases) at compile time instead
// of post hoc via golden tests and benchmarks.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Diagnostic, Facts) so each checker reads like a
// standard go/analysis analyzer, but it is self-contained on the standard
// library: this module carries no external dependencies, and the loader in
// loader.go type-checks packages with go/build + go/types directly.
//
// Analysis is interprocedural: the runner (runner.go) visits packages in
// dependency order, lets each per-package pass export Facts about the
// functions it declares (facts.go), builds a static call graph over the
// whole analyzed set (callgraph.go), and then runs each analyzer's optional
// module pass, which sees every package, every fact, and the graph at once.
// That is what lets hotalloc trace reachability from //fluxvet:hotpath
// roots across packages, and wallclock/globalrand taint callers of wrappers
// declared elsewhere.
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
// justification is itself reported — and a suppression that matches no
// finding of an analyzer in the running suite is reported as stale.
// For hotalloc, an allow on a call-site line additionally prunes the call
// edge out of hot-path reachability (the cold-branch escape hatch), and
// allows outside hot-reachable code are exempt from staleness so that
// package-subset runs do not misreport them.
//
// A third directive declares hot-path roots rather than suppressing
// anything:
//
//	//fluxvet:hotpath <reason>
//
// placed in a function's doc comment; see the hotalloc analyzer.
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
	// pass.Reportf and exporting facts about declared functions through
	// pass.ExportFact. Packages are visited in dependency order.
	Run func(*Pass) error
	// RunModule, if set, runs once after every per-package pass, with the
	// whole analyzed package set, the call graph, and all exported facts.
	RunModule func(*ModulePass) error
}

// A Pass connects an Analyzer to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	pkg *Package
	run *runner
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.run.report(p.pkg, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportFact records a fact about fn, visible to later-analyzed packages
// and to this analyzer's module pass. Facts are namespaced per analyzer.
func (p *Pass) ExportFact(fn *types.Func, f Fact) {
	p.run.facts.export(p.Analyzer.Name, KeyOf(fn), f)
}

// SuppressedAt reports whether a finding by this analyzer at pos would be
// silenced by a //fluxvet: suppression, without consuming the suppression.
// Per-package passes use it to decide whether a flagged site should also
// taint its enclosing function: a site the author has justified must not
// propagate to callers.
func (p *Pass) SuppressedAt(pos token.Pos) bool {
	_, ok := p.run.findSuppression(p.Analyzer.Name, pos, false)
	return ok
}

// A ModulePass connects an Analyzer's module pass to the whole analyzed set.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Packages is the analyzed set in dependency order: every requested
	// package plus its module-local transitive dependencies.
	Packages []*Package
	// Graph is the static call graph over Packages.
	Graph *CallGraph

	run *runner
}

// Reportf records a module-level finding at pos. Unlike per-package
// findings, module findings are kept even when pos falls in a package that
// was analyzed only as a dependency — a hot-path violation two packages
// away is still the requested package's problem.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	mp.run.report(nil, Diagnostic{
		Pos:      pos,
		Analyzer: mp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Fact retrieves a fact exported by this analyzer's per-package passes.
func (mp *ModulePass) Fact(key FuncKey) (Fact, bool) {
	return mp.run.facts.get(mp.Analyzer.Name, key)
}

// FactKeys returns the sorted keys of every fact this analyzer exported.
func (mp *ModulePass) FactKeys() []FuncKey {
	return mp.run.facts.keys(mp.Analyzer.Name)
}

// Suppressed reports whether a //fluxvet:allow for this analyzer covers
// pos, consuming (marking used) every matching suppression. Module passes
// call it on call-graph edges to let an allow prune traversal — the
// suppression is "used" by stopping the walk, even though no diagnostic is
// ever filed there.
func (mp *ModulePass) Suppressed(pos token.Pos) bool {
	_, ok := mp.run.findSuppression(mp.Analyzer.Name, pos, true)
	return ok
}

// ExemptStale registers a predicate for this analyzer's suppressions:
// where pred returns true, an unused suppression is not reported as stale.
// hotalloc uses it to keep allows on cold branches quiet when a package
// subset run never reaches them from any hot root.
func (mp *ModulePass) ExemptStale(pred func(pos token.Pos) bool) {
	mp.run.staleExempt[mp.Analyzer.Name] = pred
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
	hotpathPrefix   = "//fluxvet:hotpath"
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
				if !strings.HasPrefix(c.Text, directivePrefix) || isHotpathDirective(c.Text) {
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

// isHotpathDirective reports whether text is a //fluxvet:hotpath directive
// (well-formed or not). Hotpath directives are not suppressions — the
// hotalloc analyzer parses and validates them at the declaring function.
func isHotpathDirective(text string) bool {
	rest, ok := strings.CutPrefix(text, hotpathPrefix)
	return ok && (rest == "" || strings.HasPrefix(rest, " "))
}

// hotpathReason extracts the reason from a //fluxvet:hotpath directive.
func hotpathReason(text string) string {
	return strings.TrimSpace(strings.TrimPrefix(text, hotpathPrefix))
}

// funcForDecl returns the *types.Func defined by fd, or nil.
func funcForDecl(info *types.Info, fd *ast.FuncDecl) *types.Func {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	return fn
}

// All returns the full fluxvet suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		WallClock,
		GlobalRand,
		StrictDecode,
		SharedWrite,
		HotAlloc,
		WSAlias,
	}
}

package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// runner holds the shared state of one analysis run: every parsed
// suppression and the raw diagnostics as passes report them.
type runner struct {
	supsByFile map[string][]*suppression
	diags      []Diagnostic
}

// suppress looks for suppressions of d's analyzer covering its position
// (file-wide, same line, or the line above) and marks every match used —
// duplicates included, so a file-wide allow plus a same-line allow both
// count as exercised. The first match is returned.
func (r *runner) suppress(fset *token.FileSet, d Diagnostic) *suppression {
	p := fset.Position(d.Pos)
	var first *suppression
	for _, s := range r.supsByFile[p.Filename] {
		if s.analyzer == d.Analyzer && (s.fileWide || s.line == p.Line || s.line == p.Line-1) {
			if first == nil {
				first = s
			}
			s.used = true
		}
	}
	return first
}

// AnalyzePackages runs analyzers over each package and returns findings —
// suppression-filtered, health-checked, and position-sorted. Suppression
// health covers unknown directives, missing justifications, allows naming
// an analyzer the suite does not have, and stale allows of a running
// analyzer. An allow for a real analyzer that is idle in this run (fluxvet
// -only) is left alone.
func AnalyzePackages(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	r := &runner{supsByFile: make(map[string][]*suppression)}
	var sups []*suppression // parse order, for deterministic health reports
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, s := range parseSuppressions(fset, f) {
				r.supsByFile[s.file] = append(r.supsByFile[s.file], s)
				sups = append(sups, s)
			}
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				run:       r,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
	}

	running := make(map[string]bool, len(analyzers))
	known := make(map[string]bool)
	for _, a := range analyzers {
		running[a.Name] = true
		known[a.Name] = true
	}
	for _, a := range All() {
		known[a.Name] = true
	}

	var findings []Finding
	for _, d := range r.diags {
		f := Finding{Diagnostic: d}
		if s := r.suppress(fset, d); s != nil {
			f.Suppressed, f.Reason = true, s.reason
		}
		findings = append(findings, f)
	}

	health := func(s *suppression, msg string) {
		findings = append(findings, Finding{Diagnostic: Diagnostic{Pos: s.pos, Analyzer: "fluxvet", Message: msg}})
	}
	for _, s := range sups {
		switch {
		case s.unknown:
			health(s, "unknown fluxvet directive (expected //fluxvet:allow or //fluxvet:unordered)")
		case s.analyzer == "" || s.reason == "":
			health(s, "suppression needs an analyzer name and a written justification: //fluxvet:allow <analyzer> <reason> (or //fluxvet:unordered <reason>)")
		case !known[s.analyzer]:
			health(s, fmt.Sprintf("suppression names unknown analyzer %q (fluxvet -list shows the suite)", s.analyzer))
		case !s.used && running[s.analyzer]:
			health(s, fmt.Sprintf("stale suppression: no %s finding here to silence", s.analyzer))
		}
	}

	sort.SliceStable(findings, func(i, j int) bool {
		pi, pj := fset.Position(findings[i].Pos), fset.Position(findings[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}

// RunPackage applies analyzers to a single package and returns the
// unsuppressed diagnostics — the view fixture tests compare against.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	findings, err := AnalyzePackages([]*Package{pkg}, analyzers)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f.Diagnostic)
		}
	}
	return out, nil
}

// A JSONFinding is one finding in fluxvet -json output.
type JSONFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
}

// JSONReport renders findings as an indented JSON array (never null — an
// empty run yields []). File paths are made relative to baseDir when
// possible, so reports are stable across checkouts.
func JSONReport(fset *token.FileSet, findings []Finding, baseDir string) ([]byte, error) {
	out := make([]JSONFinding, 0, len(findings))
	for _, f := range findings {
		pos := fset.Position(f.Pos)
		file := pos.Filename
		if baseDir != "" {
			if rel, err := filepath.Rel(baseDir, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
		}
		out = append(out, JSONFinding{
			File:       file,
			Line:       pos.Line,
			Col:        pos.Column,
			Analyzer:   f.Analyzer,
			Message:    f.Message,
			Suppressed: f.Suppressed,
			Reason:     f.Reason,
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

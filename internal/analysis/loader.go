package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	Path  string // import path (fixtures may override it to enter analyzer scope)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// forTest marks a test view: either the package re-checked with its
	// in-package _test.go files merged in, or an external _test package
	// (Path then carries a "_test" suffix). Importers always resolve to the
	// pure view; test views exist only to be analyzed.
	forTest bool
}

// A Loader type-checks packages from source using only the standard
// library: go/build discovers files (honoring build constraints, cgo
// disabled so every package has a pure-Go file list), go/types checks them,
// and imports resolve either into the surrounding module (via go.mod's
// module path and local replace directives) or into GOROOT for the standard
// library. It exists because this module deliberately has no external
// dependencies — golang.org/x/tools/go/packages is not available — and the
// whole tree plus its std closure checks in a few seconds.
type Loader struct {
	// IncludeTests makes LoadPatterns also type-check _test.go files: each
	// matched package is re-checked with its in-package test files merged
	// in (replacing the pure view in the returned set), and external test
	// packages load under the import path + "_test". Set it before the
	// first LoadPatterns call.
	IncludeTests bool

	fset      *token.FileSet
	ctx       build.Context
	modules   []moduleRoot // sorted longest-path-first
	cache     map[string]*Package
	testViews map[string]*Package // keyed by Package.Path of the view
	loading   map[string]bool
}

type moduleRoot struct {
	path string // module path, e.g. "repro"
	dir  string // absolute directory
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	mods, err := findModules(abs)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	ctx.CgoEnabled = false // keep every file list pure Go; analyzers never need cgo views
	return &Loader{
		fset:      token.NewFileSet(),
		ctx:       ctx,
		modules:   mods,
		cache:     make(map[string]*Package),
		testViews: make(map[string]*Package),
		loading:   make(map[string]bool),
	}, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// ModuleRoot returns the directory of the main module.
func (l *Loader) ModuleRoot() string { return l.modules[0].dir }

// findModules walks up from dir to the enclosing go.mod and parses its
// module path plus any replace directives pointing at local directories.
// The result is sorted longest-module-path-first so import resolution picks
// the most specific mapping.
func findModules(dir string) ([]moduleRoot, error) {
	root := dir
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("fluxvet: no go.mod found above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mods, err := parseGoMod(string(data), root)
	if err != nil {
		return nil, fmt.Errorf("fluxvet: parsing %s: %w", filepath.Join(root, "go.mod"), err)
	}
	return mods, nil
}

// parseGoMod extracts the module path and local (filesystem-path) replace
// targets from go.mod text. Versioned replacements to remote modules are
// ignored here; importing one fails later with a clear error, which is fine
// for a repository whose only inter-module edge is `replace repro => ../..`.
func parseGoMod(text, root string) ([]moduleRoot, error) {
	mods := []moduleRoot{}
	inReplace := false
	for _, line := range strings.Split(text, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "module "):
			mods = append([]moduleRoot{{path: strings.TrimSpace(strings.TrimPrefix(line, "module ")), dir: root}}, mods...)
		case line == "replace (":
			inReplace = true
		case inReplace && line == ")":
			inReplace = false
		case inReplace || strings.HasPrefix(line, "replace "):
			stmt := strings.TrimSpace(strings.TrimPrefix(line, "replace"))
			old, target, ok := strings.Cut(stmt, "=>")
			if !ok {
				continue
			}
			oldPath := strings.Fields(old)[0]
			tf := strings.Fields(target)
			if len(tf) == 0 {
				continue
			}
			t := tf[0]
			if !strings.HasPrefix(t, "./") && !strings.HasPrefix(t, "../") && !filepath.IsAbs(t) {
				continue // remote replacement; unsupported, only errors if imported
			}
			if !filepath.IsAbs(t) {
				t = filepath.Join(root, t)
			}
			mods = append(mods, moduleRoot{path: oldPath, dir: t})
		}
	}
	if len(mods) == 0 || mods[0].path == "" {
		return nil, fmt.Errorf("no module directive")
	}
	sort.SliceStable(mods, func(i, j int) bool { return len(mods[i].path) > len(mods[j].path) })
	return mods, nil
}

// moduleDir resolves an import path into a module-mapped directory, or
// returns false if the path belongs to no known module (i.e. std).
func (l *Loader) moduleDir(path string) (string, bool) {
	for _, m := range l.modules {
		if path == m.path {
			return m.dir, true
		}
		if strings.HasPrefix(path, m.path+"/") {
			return filepath.Join(m.dir, filepath.FromSlash(strings.TrimPrefix(path, m.path+"/"))), true
		}
	}
	return "", false
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot(), 0)
}

// ImportFrom implements types.ImporterFrom: module paths load from their
// mapped directories, everything else resolves through go/build (GOROOT,
// including the std vendor tree).
func (l *Loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.moduleDir(path); ok {
		pkg, err := l.loadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	bp, err := l.ctx.Import(path, srcDir, 0)
	if err != nil {
		return nil, fmt.Errorf("resolving import %q from %s: %w", path, srcDir, err)
	}
	pkg, err := l.loadDir(bp.Dir, bp.ImportPath)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// loadDir parses and type-checks the package in dir under import path
// asPath, memoized by path. Detailed type information (ast.File list,
// types.Info) is retained for every loaded package; analyzers only see the
// ones the caller asks for.
func (l *Loader) loadDir(dir, asPath string) (*Package, error) {
	if pkg, ok := l.cache[asPath]; ok {
		return pkg, nil
	}
	if l.loading[asPath] {
		return nil, fmt.Errorf("import cycle through %q", asPath)
	}
	l.loading[asPath] = true
	defer delete(l.loading, asPath)

	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("listing %s: %w", dir, err)
	}
	files, err := l.parseFiles(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg, err := l.checkFiles(dir, asPath, files)
	if err != nil {
		return nil, err
	}
	l.cache[asPath] = pkg
	return pkg, nil
}

// parseFiles parses the named files of dir into the shared file set.
func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// checkFiles type-checks a file list as the package asPath.
func (l *Loader) checkFiles(dir, asPath string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var firstErr error
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(asPath, l.fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("type-checking %s: %w", asPath, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", asPath, err)
	}
	return &Package{Path: asPath, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadDir loads the single package in dir under the given import path.
// Analyzer tests use the override to place fixtures inside scoped packages
// (e.g. a testdata directory checked as "repro/internal/fed").
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.loadDir(abs, asPath)
}

// LoadPatterns expands package patterns relative to dir — ".", "./path",
// and the recursive "./..." / "./path/..." forms — into loaded packages.
// Walks skip testdata, vendor, hidden and underscore directories, and
// nested modules, matching the go tool's pattern expansion.
func (l *Loader) LoadPatterns(dir string, patterns ...string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(abs, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			walked, err := l.walkPackages(root)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
			continue
		}
		add(filepath.Join(abs, filepath.FromSlash(pat)))
	}

	var pkgs []*Package
	for _, d := range dirs {
		path, err := l.importPathFor(d)
		if err != nil {
			return nil, err
		}
		pkg, err := l.loadDir(d, path)
		if err != nil {
			return nil, err
		}
		if !l.IncludeTests {
			pkgs = append(pkgs, pkg)
			continue
		}
		merged, xtest, err := l.loadTestViews(d, path, pkg)
		if err != nil {
			return nil, err
		}
		if merged != nil {
			pkg = merged
		}
		pkgs = append(pkgs, pkg)
		if xtest != nil {
			pkgs = append(pkgs, xtest)
		}
	}
	return pkgs, nil
}

// loadTestViews type-checks the test files of the package at dir: a merged
// view of the package's own files plus its in-package _test.go files
// (checked under the same import path — importers never see it), and the
// external test package, checked as path+"_test". Either may be nil when
// the package has no test files of that kind.
func (l *Loader) loadTestViews(dir, path string, pure *Package) (merged, xtest *Package, err error) {
	if tv, ok := l.testViews[path]; ok {
		return tv, l.testViews[path+"_test"], nil
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("listing %s: %w", dir, err)
	}
	if len(bp.TestGoFiles) > 0 {
		testFiles, err := l.parseFiles(dir, bp.TestGoFiles)
		if err != nil {
			return nil, nil, err
		}
		merged, err = l.checkFiles(dir, path, append(append([]*ast.File(nil), pure.Files...), testFiles...))
		if err != nil {
			return nil, nil, err
		}
		merged.forTest = true
		l.testViews[path] = merged
	}
	if len(bp.XTestGoFiles) > 0 {
		xtestFiles, err := l.parseFiles(dir, bp.XTestGoFiles)
		if err != nil {
			return nil, nil, err
		}
		xtest, err = l.checkFiles(dir, path+"_test", xtestFiles)
		if err != nil {
			return nil, nil, err
		}
		xtest.forTest = true
		l.testViews[path+"_test"] = xtest
	}
	return merged, xtest, nil
}

// LocalPackages returns every loaded package that belongs to a known module
// (i.e. everything except the std closure), with pure views replaced by
// their test-augmented views where those exist, sorted by import path. This
// is the analysis set: requested packages plus the module-local
// dependencies they pulled in.
func (l *Loader) LocalPackages() []*Package {
	var out []*Package
	//fluxvet:unordered packages are collected then sorted before use
	for path, p := range l.cache {
		if _, ok := l.moduleDir(path); !ok {
			continue
		}
		if tv := l.testViews[path]; tv != nil {
			continue // the test view below supersedes the pure view
		}
		out = append(out, p)
	}
	for _, p := range l.testViews {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Analyze runs analyzers over every loaded module-local package, reporting
// per-package findings only for the requested ones. See AnalyzePackages.
func (l *Loader) Analyze(requested []*Package, analyzers []*Analyzer) ([]Finding, error) {
	return AnalyzePackages(l.LocalPackages(), requested, analyzers)
}

// walkPackages finds every package directory under root, skipping the
// directories the go tool's "..." expansion skips.
func (l *Loader) walkPackages(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		if _, err := l.ctx.ImportDir(path, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok || strings.Contains(err.Error(), "build constraints exclude all Go files") {
				return nil
			}
			return err
		}
		out = append(out, path)
		return nil
	})
	return out, err
}

// importPathFor maps a directory inside a known module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	for _, m := range l.modules {
		rel, err := filepath.Rel(m.dir, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		if rel == "." {
			return m.path, nil
		}
		return m.path + "/" + filepath.ToSlash(rel), nil
	}
	return "", fmt.Errorf("fluxvet: %s is outside module %s", dir, l.ModuleRoot())
}

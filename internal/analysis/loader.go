package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"runtime"
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
}

// A Loader type-checks packages from source with go/types, and leaves every
// decision about packages to the go command: one `go list -deps` call per
// load names the matched packages, their files (build constraints applied,
// cgo disabled so every file list is pure Go), the module or replace target
// behind each import, and the vendored std packages (ImportMap). Each import
// path is checked once, so an analyzed package and its importers share one
// *types.Package.
type Loader struct {
	// IncludeTests makes LoadPatterns also type-check _test.go files: each
	// matched package is re-checked with its in-package test files merged
	// in (replacing the pure view in the returned set), and external test
	// packages load under the import path + "_test". Set it before the
	// first LoadPatterns call.
	IncludeTests bool

	fset   *token.FileSet
	root   string
	listed map[string]*listedPackage // by import path, test variants' suffix cut
	cache  map[string]*Package
}

// listedPackage is the part of a `go list -json` record the loader reads;
// listFields asks go list for these fields alone, so they decode strictly.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Standard     bool
	DepOnly      bool
	Match        []string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	ImportMap    map[string]string
	Error        *struct {
		ImportStack []string
		Pos, Err    string
	}
}

const listFields = "-json=ImportPath,Dir,Standard,DepOnly,Match,GoFiles,TestGoFiles,XTestGoFiles,ImportMap,Error"

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	mods, err := goList(dir, "-m")
	if err != nil {
		return nil, err
	}
	if mods[0].Dir == "" {
		return nil, fmt.Errorf("%s is not inside a module", dir)
	}
	return &Loader{
		fset:   token.NewFileSet(),
		root:   mods[0].Dir,
		listed: make(map[string]*listedPackage),
		cache:  map[string]*Package{"unsafe": {Path: "unsafe", Types: types.Unsafe}},
	}, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// ModuleRoot returns the directory of the main module.
func (l *Loader) ModuleRoot() string { return l.root }

// goList runs `go list -e -json=... args...` in dir and decodes its records.
func goList(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", listFields}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(cmd.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.DisallowUnknownFields()
	for err == nil && dec.More() {
		p := new(listedPackage)
		err = dec.Decode(p)
		pkgs = append(pkgs, p)
	}
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v %s", strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return pkgs, nil
}

// list lists args in dir with their dependencies, records every package
// the listing names, and returns the ones the patterns matched. A test
// variant ("p [q.test]") is recorded under p only when the listing has no
// plain record of p, which is how test-only dependencies come in.
func (l *Loader) list(dir string, args ...string) ([]*listedPackage, error) {
	pkgs, err := goList(dir, append([]string{"-deps"}, args...)...)
	if err != nil {
		return nil, err
	}
	var roots []*listedPackage
	for _, p := range pkgs {
		path, _, variant := strings.Cut(p.ImportPath, " ")
		if _, ok := l.listed[path]; !ok || !variant {
			l.listed[path] = p
		}
		if len(p.Match) > 0 && !p.DepOnly && !variant {
			roots = append(roots, p)
		}
	}
	return roots, nil
}

// load type-checks the listed package at path, memoized by path.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	p, ok := l.listed[path]
	if !ok {
		return nil, fmt.Errorf("package %q is not in the go list output", path)
	}
	pkg, err := l.check(p, path, nil, p.GoFiles)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// check parses the named files of p and type-checks them, after the parsed
// files of base, as the package asPath, resolving imports through p's
// ImportMap. Module packages are checked fully, with comments and
// types.Info, since any may be analyzed; std packages are only imported, so
// they are checked for their declarations alone.
func (l *Loader) check(p *listedPackage, asPath string, base []*ast.File, names []string) (*Package, error) {
	if p.Error != nil {
		return nil, fmt.Errorf("listing %s: %s", p.ImportPath, p.Error.Err)
	}
	full := !p.Standard
	mode := parser.SkipObjectResolution
	if full {
		mode |= parser.ParseComments
	}
	files := append([]*ast.File(nil), base...)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var info *types.Info
	if full {
		info = &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
	}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := p.ImportMap[path]; ok {
				path, _, _ = strings.Cut(mapped, " ")
			}
			pkg, err := l.load(path)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}),
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		IgnoreFuncBodies: !full,
	}
	tpkg, err := conf.Check(asPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", asPath, err)
	}
	return &Package{Path: asPath, Dir: p.Dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// LoadDir loads the single package in dir under the given import path.
// Analyzer tests use the override to place fixtures inside scoped packages
// (e.g. a testdata directory checked as "repro/internal/fed").
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	roots, err := l.list(dir, ".")
	if err != nil {
		return nil, err
	}
	return l.check(roots[0], asPath, nil, roots[0].GoFiles)
}

// LoadPatterns loads the packages that patterns match, listed from dir.
// Patterns mean what they mean to go vet: import paths, directories
// ("./internal/fed") and "..." wildcards, which skip testdata, vendor,
// "_" and "." directories and nested modules.
func (l *Loader) LoadPatterns(dir string, patterns ...string) ([]*Package, error) {
	roots, err := l.list(dir, append([]string{"-test=" + fmt.Sprint(l.IncludeTests), "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, p := range roots {
		pkg, err := l.load(p.ImportPath)
		if err == nil && l.IncludeTests && len(p.TestGoFiles) > 0 {
			pkg, err = l.check(p, p.ImportPath, pkg.Files, p.TestGoFiles)
		}
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
		if l.IncludeTests && len(p.XTestGoFiles) > 0 {
			xtest, err := l.check(p, p.ImportPath+"_test", nil, p.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, xtest)
		}
	}
	return pkgs, nil
}

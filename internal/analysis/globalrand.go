package analysis

import (
	"go/ast"
	"go/types"
)

// GlobalRand forbids the process-global math/rand stream and wall-clock
// seeding. Every random draw in an experiment must derive from the
// configured experiment seed through the established stream-split helpers
// (tensor.RNG / env.RNG.Split), so that runs are reproducible and
// participant streams stay independent of scheduling. The package-level
// math/rand functions share one global, racy, arbitrarily-seeded source;
// using one anywhere silently couples unrelated draws and breaks
// bit-reproducibility.
//
// Reading a package-level *rand.Rand is the same mistake spelled
// differently and is flagged at every use.
//
// Constructing an explicitly seeded source is fine (rand.New,
// rand.NewSource, rand.NewZipf, and the v2 NewPCG/NewChaCha8) — unless the
// seed expression itself reads the wall clock, which just launders
// nondeterminism through a constructor.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "forbids top-level math/rand functions, package-level rand sources, and wall-clock seeding; randomness must derive from the experiment seed",
	Run:  runGlobalRand,
}

// randConstructors build sources/generators from an explicit seed and are
// the only package-level math/rand functions allowed.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runGlobalRand(pass *Pass) error {
	// A *rand.Rand (or Source, ...) stored in a package-level variable is a
	// process-global stream no matter how carefully it was seeded: every
	// caller shares and advances it, so draw order depends on scheduling.
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if v, ok := scope.Lookup(name).(*types.Var); ok && isRandSourceType(v.Type()) {
			pass.Reportf(v.Pos(),
				"package-level math/rand source %q shares one stream across every caller; hand a seed-split *rand.Rand to the code that needs it", name)
		}
	}

	for _, f := range pass.Files {
		callFun := markCallFuns(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// Constructor calls are allowed, but not with a seed
				// expression that reads the wall clock.
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || !randConstructors[fn.Name()] {
					return true
				}
				if pkg := fn.Pkg().Path(); pkg != "math/rand" && pkg != "math/rand/v2" {
					return true
				}
				if arg := wallClockSeed(pass, n); arg != nil {
					pass.Reportf(arg.Pos(),
						"%s.%s seeded from the wall clock; derive the seed from the experiment configuration instead", fn.Pkg().Path(), fn.Name())
				}
			case *ast.Ident:
				// Use of a package-level rand source, ours or another
				// package's (then reached through a SelectorExpr whose
				// Sel is this ident).
				v, ok := pass.TypesInfo.Uses[n].(*types.Var)
				if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() || !isRandSourceType(v.Type()) {
					return true
				}
				pass.Reportf(n.Pos(),
					"use of package-level math/rand source %q; draws must come from a stream split from the experiment seed", v.Name())
			case *ast.SelectorExpr:
				obj := pass.TypesInfo.Uses[n.Sel]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				pkg := obj.Pkg().Path()
				if pkg != "math/rand" && pkg != "math/rand/v2" {
					return true
				}
				fn, isFn := obj.(*types.Func)
				if !isFn {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true // method on an explicit *rand.Rand — the approved shape
				}
				name := fn.Name()
				if randConstructors[name] {
					return true // seed checked at the CallExpr node
				}
				if callFun[n] {
					pass.Reportf(n.Pos(),
						"%s.%s draws from the process-global source; split a stream from the experiment seed instead (tensor.RNG)", pkg, name)
				} else {
					pass.Reportf(n.Pos(),
						"%s.%s captured as a value draws from the process-global source at every call; split a stream from the experiment seed instead", pkg, name)
				}
			}
			return true
		})
	}
	return nil
}

// isRandSourceType reports whether t is (a pointer to) one of math/rand's
// stateful generator types.
func isRandSourceType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	if path := obj.Pkg().Path(); path != "math/rand" && path != "math/rand/v2" {
		return false
	}
	switch obj.Name() {
	case "Rand", "Source", "Source64", "Zipf", "PCG", "ChaCha8":
		return true
	}
	return false
}

// wallClockSeed returns the first argument expression of call that reads
// the wall clock (contains a time.Now/time.Since call), or nil.
func wallClockSeed(pass *Pass, call *ast.CallExpr) ast.Expr {
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if isWallClockFunc(pass.TypesInfo.Uses[sel.Sel]) {
				found = true
				return false
			}
			return true
		})
		if found {
			return arg
		}
	}
	return nil
}

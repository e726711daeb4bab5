package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// WallClock forbids reading or waiting on the wall clock in simulation and
// engine code. Every duration in an experiment must flow through
// internal/simtime so that results are a pure function of the configuration
// and seed; a stray time.Now or time.Sleep makes timing (and anything
// derived from it) differ between runs and machines.
//
// The check is per site: a wrapper around time.Now is flagged inside the
// wrapper, which must then be justified or removed, so callers never need
// flagging.
//
// Command-line packages (…/cmd/…) are exempt — progress reporting on a
// terminal is I/O surface, not simulation. Real I/O deadlines (socket
// read/write timeouts in the TCP transport) and real-time test-harness
// bounds are legitimate wall-clock uses; they carry
// //fluxvet:allow wallclock <reason> justifications.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbids time.Now/Since/Sleep and friends outside internal/simtime; simulated experiments must not read the wall clock",
	Run:  runWallClock,
}

// wallClockFuncs are the package time functions that observe or wait on
// real time. Pure-value helpers (time.Duration arithmetic, time.Unix,
// time.Parse) are fine.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

func runWallClock(pass *Pass) error {
	if isCmdPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		callFun := markCallFuns(f)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if !isWallClockFunc(obj) {
				return true
			}
			if callFun[sel] {
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock; simulated time must flow through internal/simtime (real I/O deadlines: //fluxvet:allow wallclock <reason>)",
					obj.Name())
			} else {
				pass.Reportf(sel.Pos(),
					"time.%s captured as a value reads the wall clock at every call; simulated time must flow through internal/simtime",
					obj.Name())
			}
			return true
		})
	}
	return nil
}

// isWallClockFunc reports whether obj is one of the package time functions
// in wallClockFuncs. Methods are excluded: t.After(u) compares two instants
// and reads no clock.
func isWallClockFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] &&
		fn.Type().(*types.Signature).Recv() == nil
}

// isCmdPackage reports whether path names a command package, which the
// wallclock contract exempts (terminal progress reporting is I/O surface,
// not simulation).
func isCmdPackage(path string) bool {
	return strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/")
}

// markCallFuns returns the set of expressions occupying a call's function
// position, so analyzers can distinguish f(x) from a value reference to f.
func markCallFuns(f *ast.File) map[ast.Expr]bool {
	out := make(map[ast.Expr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			out[ast.Unparen(call.Fun)] = true
		}
		return true
	})
	return out
}

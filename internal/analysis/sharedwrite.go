package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SharedWrite enforces the disjoint-write half of the ForEachOf determinism
// contract (internal/fed/parallel.go): a participant body runs concurrently
// with its siblings, so it may write only per-participant state. A body is a
// function literal passed to ForEachOf or its public alias ForEachCohort, or
// one used as a Participant — returned from a function whose result is a
// Participant (a Rounder's Round), or converted with Participant(...). In a
// body, an assignment to a variable captured from the enclosing scope
// is flagged unless the write targets a slice or map element indexed by one
// of the callback's parameters (the slot/participant index or something
// derived from it) — the pattern that keeps writes disjoint across workers.
//
// The check is syntactic and errs on the side of reporting: accumulating
// into a captured scalar, appending to a captured slice, or reassigning a
// captured pointer are all races or order-dependent reductions and must
// move after the pool joins (reduce in participant order). Mutation through
// captured pointers hidden behind method calls is outside its reach — the
// -race CI leg backstops those.
var SharedWrite = &Analyzer{
	Name: "sharedwrite",
	Doc:  "flags writes to captured variables inside ForEachOf/ForEachCohort/Participant bodies that are not element writes indexed by the participant",
	Run:  runSharedWrite,
}

// bodyCallees are the calls whose last function-literal argument is a
// participant body: the worker-pool fan-outs and the conversion to the
// Participant function type. Matched by name so the check follows the public
// flux aliases and out-of-module callers too.
var bodyCallees = map[string]bool{
	"ForEachOf":     true,
	"ForEachCohort": true,
	"Participant":   true,
}

func runSharedWrite(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				name := lastName(n.Fun)
				if bodyCallees[name] && len(n.Args) > 0 {
					if lit, ok := n.Args[len(n.Args)-1].(*ast.FuncLit); ok {
						checkBodyWrites(pass, name, lit)
					}
				}
			case *ast.FuncDecl:
				checkReturnedBodies(pass, n.Type, n.Body)
			case *ast.FuncLit:
				checkReturnedBodies(pass, n.Type, n.Body)
			}
			return true
		})
	}
	return nil
}

// lastName is the identifier an expression ends in: x for x and pkg.x, ""
// for anything else.
func lastName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// checkReturnedBodies checks the function literals a function returns as
// its single Participant result.
func checkReturnedBodies(pass *Pass, typ *ast.FuncType, body *ast.BlockStmt) {
	if body == nil || typ.Results == nil || len(typ.Results.List) != 1 || lastName(typ.Results.List[0].Type) != "Participant" {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a nested function's returns are its own
		case *ast.ReturnStmt:
			if len(n.Results) == 1 {
				if lit, ok := n.Results[0].(*ast.FuncLit); ok {
					checkBodyWrites(pass, "Participant", lit)
				}
			}
		}
		return true
	})
}

// checkBodyWrites flags non-disjoint writes to captured variables inside
// one participant body.
func checkBodyWrites(pass *Pass, entry string, lit *ast.FuncLit) {
	params := make(map[types.Object]bool)
	for _, field := range lit.Type.Params.List {
		for _, id := range field.Names {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				params[obj] = true
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			if stmt.Tok == token.DEFINE {
				return true // declares fresh locals inside the body
			}
			for _, lhs := range stmt.Lhs {
				checkWrite(pass, entry, lit, params, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, entry, lit, params, stmt.X)
		}
		return true
	})
}

// checkWrite reports lhs if its base variable is captured from outside the
// callback and no index on the access path mentions a callback parameter.
func checkWrite(pass *Pass, entry string, lit *ast.FuncLit, params map[types.Object]bool, lhs ast.Expr) {
	indexedByParam := false
	e := lhs
peel:
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			if mentionsParam(pass, params, x.Index) {
				indexedByParam = true
			}
			e = x.X
		default:
			break peel
		}
	}
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return
	}
	if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
		return // declared inside the callback (params included)
	}
	if indexedByParam {
		return // disjoint element write, e.g. results[slot] = ...
	}
	pass.Reportf(lhs.Pos(),
		"%s body writes captured %q without indexing by the participant; per-participant state only — reduce shared state after the pool joins", entry, id.Name)
}

// mentionsParam reports whether expr references any callback parameter.
func mentionsParam(pass *Pass, params map[types.Object]bool, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && params[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

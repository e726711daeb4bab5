package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A CallEdge records one syntactic use of a function from inside another:
// either a direct call (`f(x)`, `v.M(x)`) or a reference that captures the
// function as a value (`go f`, `time.Now` passed as a callback, a method
// value handed to ForEachOf). References matter as much as calls —
// a captured function runs later with the same effects.
type CallEdge struct {
	Caller    FuncKey
	Callee    FuncKey
	CalleePkg string    // package path of the callee ("" for universe-scope methods)
	Pos       token.Pos // call or reference site
	Ref       bool      // value reference rather than direct call
}

// A CallNode is one module-local function with a body.
type CallNode struct {
	Key  FuncKey
	Pkg  *Package
	Decl *ast.FuncDecl
	Out  []CallEdge // in source order
}

// A CallGraph is the static call graph over every analyzed package: nodes
// for each module-local function declaration, edges for direct calls and
// function-value references. Closure bodies (func literals) are attributed
// to their enclosing declaration, so a callback passed to a worker pool
// contributes edges from the function that built it. Dynamic dispatch
// through interfaces stays a leaf: the edge targets the interface method's
// key, which has no node.
type CallGraph struct {
	nodes   map[FuncKey]*CallNode
	callers map[FuncKey][]CallEdge
}

// Node returns the graph node for key, or nil if key names no module-local
// function body (std function, interface method, or unanalyzed package).
func (g *CallGraph) Node(key FuncKey) *CallNode { return g.nodes[key] }

// Callers returns the edges pointing at key, sorted by caller then position.
func (g *CallGraph) Callers(key FuncKey) []CallEdge { return g.callers[key] }

// shortFuncKey trims a key's package path to its last element for readable
// diagnostics: "repro/internal/tensor.Grow" becomes "tensor.Grow".
func shortFuncKey(k FuncKey) string {
	s := string(k)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// buildCallGraph constructs the call graph over pkgs.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes:   make(map[FuncKey]*CallNode),
		callers: make(map[FuncKey][]CallEdge),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := KeyOf(obj)
				if _, dup := g.nodes[key]; dup {
					continue // redeclaration across views; first wins
				}
				node := &CallNode{Key: key, Pkg: pkg, Decl: fd}
				node.Out = collectEdges(pkg.Info, key, fd.Body)
				g.nodes[key] = node
			}
		}
	}
	for _, key := range sortedNodeKeys(g.nodes) {
		for _, e := range g.nodes[key].Out {
			g.callers[e.Callee] = append(g.callers[e.Callee], e)
		}
	}
	return g
}

func sortedNodeKeys(nodes map[FuncKey]*CallNode) []FuncKey {
	keys := make([]FuncKey, 0, len(nodes))
	for k := range nodes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// collectEdges walks one function body and records every static callee and
// function-value reference. Builtins (append, make, ...) and type
// conversions resolve to non-*types.Func objects and fall out naturally.
func collectEdges(info *types.Info, caller FuncKey, body *ast.BlockStmt) []CallEdge {
	// First pass: mark the syntactic function position of every call, so the
	// second pass can tell `f(x)` (call) from `g(f)` (reference).
	callFun := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fun := ast.Unparen(call.Fun)
			callFun[fun] = true
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				callFun[sel.Sel] = true
			}
		}
		return true
	})

	var out []CallEdge
	consumed := make(map[*ast.Ident]bool) // Sel idents handled at their SelectorExpr
	addEdge := func(n ast.Node, fn *types.Func, isCall bool) {
		pkgPath := ""
		if fn.Pkg() != nil {
			pkgPath = fn.Pkg().Path()
		}
		out = append(out, CallEdge{
			Caller:    caller,
			Callee:    KeyOf(fn),
			CalleePkg: pkgPath,
			Pos:       n.Pos(),
			Ref:       !isCall,
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[n.Sel].(*types.Func); ok {
				consumed[n.Sel] = true
				addEdge(n, fn, callFun[ast.Unparen(n)] || callFun[n.Sel])
			}
		case *ast.Ident:
			if consumed[n] {
				return true
			}
			if fn, ok := info.Uses[n].(*types.Func); ok {
				addEdge(n, fn, callFun[n])
			}
		}
		return true
	})
	return out
}

package analysis

import (
	"go/types"
	"sort"
	"strings"
	"testing"
)

// knownOrphans are the functions under internal/ that no non-test file
// references and that stay anyway. The list may only shrink:
// TestNoOrphanExports fails on an orphan that is not listed and on an entry
// that is no longer an orphan. What is left is test support and oracles.
var knownOrphans = map[string]string{
	"repro/internal/tensor.FromSlice":                    "literal matrices in tensor and quant tests",
	"(*repro/internal/tensor.Matrix).At":                 "element reads in tests",
	"(*repro/internal/tensor.Matrix).Set":                "element writes in tests",
	"(*repro/internal/tensor.Matrix).Equal":              "matrix comparison in tests",
	"repro/internal/quant.Quantize":                      "materialised-code oracle of RoundTripInPlace",
	"(*repro/internal/quant.QuantizedMatrix).Dequantize": "materialised-code oracle of RoundTripInPlace",
	"(*repro/internal/moe.ExpertGrad).Norm":              "gradient-is-zero checks in moe and assign tests",
	"(repro/internal/simtime.Device).Validate":           "input check, exercised by TestDeviceValidateRejects",
}

// TestNoOrphanExports fails when a package under internal/ declares a
// function or method, exported or not, that no non-test file of the module
// references — an allocating twin, a feature nothing reaches, or a helper a
// refactor left behind. Methods that satisfy an interface are reached through
// it and exempt, as are init and main; so are packages whose name ends in
// "test", which exist to be imported by tests.
func TestNoOrphanExports(t *testing.T) {
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns(l.ModuleRoot(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[types.Object]bool)
	var ifaces []*types.Interface
	seen := make(map[*types.Package]bool)
	collect := func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, p := range pkgs {
		//fluxvet:unordered set insertion only
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		collect(p.Types)
		for _, imp := range p.Types.Imports() {
			collect(imp)
		}
	}
	viaInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		if types.IsInterface(recv.Type()) {
			return true // the interface's own method declaration
		}
		ptr := recv.Type()
		if _, ok := ptr.(*types.Pointer); !ok {
			ptr = types.NewPointer(ptr)
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && types.Implements(ptr, it) {
					return true
				}
			}
		}
		return false
	}
	orphans := make(map[string]string) // full name → position
	for _, p := range pkgs {
		if !strings.Contains(p.Path, "/internal/") || strings.HasSuffix(p.Path, "test") {
			continue
		}
		//fluxvet:unordered collected into a map and sorted before reporting
		for id, obj := range p.Info.Defs {
			fn, ok := obj.(*types.Func)
			if ok && fn.Name() != "init" && fn.Name() != "main" && !used[fn] && !viaInterface(fn) {
				orphans[fn.FullName()] = l.Fset().Position(id.Pos()).String()
			}
		}
	}
	var msgs []string
	//fluxvet:unordered messages are sorted before reporting
	for name, pos := range orphans {
		if _, ok := knownOrphans[name]; !ok {
			msgs = append(msgs, pos+": "+name+" is referenced only from _test.go files (or nowhere): delete it, or move it into the tests")
		}
	}
	//fluxvet:unordered messages are sorted before reporting
	for name := range knownOrphans {
		if _, ok := orphans[name]; !ok {
			msgs = append(msgs, "knownOrphans lists "+name+", which is no longer an orphan: drop the entry")
		}
	}
	sort.Strings(msgs)
	for _, m := range msgs {
		t.Error(m)
	}
}

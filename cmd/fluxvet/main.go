// Fluxvet runs the determinism-contract analyzer suite (internal/analysis)
// over package patterns, like a project-specific go vet:
//
//	fluxvet ./...                  # whole module, from the module root
//	fluxvet ./internal/fed         # one package (or repro/internal/fed)
//	fluxvet -tests=false ./...     # skip _test.go files
//	fluxvet -json ./...            # machine-readable findings
//	fluxvet -list                  # describe the analyzers
//
// Only the requested packages are analyzed; their dependencies are
// type-checked but not linted. Test files are analyzed by default — the
// determinism contract covers the suite too — and can be excluded with
// -tests=false.
//
// Patterns mean what they mean to go vet: the go command lists the packages,
// so it works from inside any module, examples/external_method and its
// replace directive included. It exits non-zero if any finding survives
// suppression filtering, so CI can enforce a clean tree. See the README's
// "Determinism contract" section for what each analyzer enforces and how to
// justify exceptions.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	tests := flag.Bool("tests", true, "also analyze _test.go files")
	jsonOut := flag.Bool("json", false, "emit findings as JSON (including suppressed ones) on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: fluxvet [-list] [-only a,b] [-tests=false] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := analysis.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-13s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return
	}
	if *only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range suite {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		if len(keep) > 0 {
			var unknown []string
			for name := range keep {
				unknown = append(unknown, name)
			}
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "fluxvet: unknown analyzer(s): %s\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
		suite = filtered
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	loader.IncludeTests = *tests
	pkgs, err := loader.LoadPatterns(cwd, patterns...)
	if err != nil {
		fatal(err)
	}
	findings, err := analysis.AnalyzePackages(pkgs, suite)
	if err != nil {
		fatal(err)
	}

	unsuppressed := 0
	for _, f := range findings {
		if !f.Suppressed {
			unsuppressed++
		}
	}
	if *jsonOut {
		b, err := analysis.JSONReport(loader.Fset(), findings, cwd)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
	} else {
		for _, f := range findings {
			if !f.Suppressed {
				fmt.Println(f.Format(loader.Fset()))
			}
		}
	}
	if unsuppressed > 0 {
		fmt.Fprintf(os.Stderr, "fluxvet: %d finding(s)\n", unsuppressed)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fluxvet:", err)
	os.Exit(2)
}

// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON array on stdout. CI pipes the BenchmarkRound suite
// through it to publish BENCH_round.json, so the worker-pool scaling curve
// is tracked as an artifact per commit:
//
//	go test -run '^$' -bench '^BenchmarkRound$' -benchmem . | benchjson > BENCH_round.json
//
// Every result is stamped with the machine it was measured on, because a
// ns/op (or a workers=8 row) means nothing without it: GOOS, GOARCH and the
// CPU model from the header lines go test prints, GOMAXPROCS from the -N
// suffix of the result line, and the CPU count and Go version of benchjson
// itself, which runs on the same machine at the other end of the pipe.
// Other lines (pkg headers, PASS/ok trailers) are ignored.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`

	// Params are the key=value dimensions of the sub-benchmark name, e.g.
	// "BenchmarkRound/method=flux/workers=8/fleet=longtail" yields
	// {method: flux, workers: 8, fleet: longtail}. The parse is shape-
	// agnostic: any number of `/`-separated pairs in any order, with
	// non-pair segments ignored, so adding a new benchmark dimension never
	// breaks publishing.
	Params map[string]string `json:"params,omitempty"`

	// Machine context (see the package comment).
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
}

func main() {
	var results []Result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var goos, goarch, cpu string // most recent go test header lines
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "goos: "); ok {
			goos = v
		} else if v, ok := strings.CutPrefix(line, "goarch: "); ok {
			goarch = v
		} else if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = v
		} else if r, ok := parseLine(line); ok {
			r.GOOS, r.GOARCH, r.CPU = goos, goarch, cpu
			r.NumCPU, r.GoVersion = runtime.NumCPU(), runtime.Version()
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if results == nil {
		results = []Result{} // emit [] rather than null for an empty run
	}
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkRound/workers=1-8  3  345678 ns/op  120 B/op  7 allocs/op
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	name, procs := splitProcSuffix(fields[0])
	r := Result{Name: name, Iterations: iters, Params: parseParams(name), GOMAXPROCS: procs}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return r, seen
}

// splitProcSuffix splits off the trailing -GOMAXPROCS marker go test appends
// to benchmark names ("BenchmarkRound/workers=1-8" → "BenchmarkRound/workers=1",
// 8). go test omits the marker when GOMAXPROCS is 1.
func splitProcSuffix(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}

// parseParams extracts the key=value dimensions of a sub-benchmark name.
// Segments without a '=' (including the leading BenchmarkXxx) are skipped;
// a duplicated key keeps the last value, matching go test's own sub-test
// naming. Nil is returned when the name carries no dimensions, so plain
// benchmarks serialize without a params object.
func parseParams(name string) map[string]string {
	var params map[string]string
	for _, seg := range strings.Split(name, "/")[1:] {
		k, v, ok := strings.Cut(seg, "=")
		if !ok || k == "" {
			continue
		}
		if params == nil {
			params = make(map[string]string)
		}
		params[k] = v
	}
	return params
}

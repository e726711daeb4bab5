package obs

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// FuzzParseTrace drives the reading half of the trace format, which
// `fluxsim -trace-summary` points at arbitrary files. The corpus is seeded
// with a real `fluxsim -trace` output (testdata/straggler-drop-trace.json,
// written by `go run ./cmd/fluxsim -scenario scenarios/straggler-drop.json
// -trace ...`), with this package's two-round recording (flush, straggler
// wait, dropped participant), and with a few malformed documents (one with a
// second document after the first).
//
// Invariants: ParseTrace never panics; every input it accepts, Summarize
// accepts too and summarizes without a panic, and the summary prints.
func FuzzParseTrace(f *testing.F) {
	scenario, err := os.ReadFile("testdata/straggler-drop-trace.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(scenario)
	trace, _ := record(f)
	f.Add(trace)
	f.Add([]byte(`{"displayTimeUnit":"ms","traceEvents":[]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"p0","cat":"participant","ph":"X","ts":0,"dur":-1,"pid":1,"tid":-7,"args":{"device":3}}]}`))
	f.Add([]byte(`{"displayTimeUnit":"ms","traceEvents":[`))
	f.Add([]byte(`{"traceEvents":[]} {"traceEvents":[]}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ParseTrace(bytes.NewReader(data)); err != nil {
			return
		}
		sum, err := Summarize(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Summarize rejected a trace ParseTrace accepted: %v", err)
		}
		if err := sum.WriteText(io.Discard, 5); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
	})
}

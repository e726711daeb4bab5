package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

// record drives one small two-round run (one with a flush, straggler time,
// and two participants) through a recorder and returns the sink bytes.
func record(t *testing.T) (trace, runlog []byte) {
	t.Helper()
	var tb, rb bytes.Buffer
	r := NewRecorder(&tb, &rb)
	if r == nil {
		t.Fatal("NewRecorder returned nil with both sinks attached")
	}
	r.BeginRun(RunMeta{Method: "fmd", Dataset: "gsm8k", Model: "llama", Seed: "s", Transport: "in-process", Participants: 2})
	r.EndRound(Round{Round: 0, Score: 0.25})
	r.Participant(Participant{Index: 0, Device: "consumer-low",
		Phases:      map[string]float64{"fine-tuning": 10, "communication": 2, "zeta-extra": 1, "alpha-extra": 1},
		UplinkBytes: 100, DownlinkBytes: 200})
	r.Participant(Participant{Index: 1, Device: "consumer-high",
		Phases: map[string]float64{"fine-tuning": 5, "communication": 1}, UplinkBytes: 50, DownlinkBytes: 200, Dropped: true})
	r.Flush(Flush{At: 6, Dur: 0.5, Size: 2, Stale: 1, Version: 1})
	r.EndRound(Round{Round: 1, StartSec: 0, EndSec: 14, Score: 0.5, UplinkBytes: 150, DownlinkBytes: 400,
		Selected: 2, Completed: 1, Dropped: 1, ModelVersion: 1, Stale: 1,
		Phases: map[string]float64{"fine-tuning": 10, "communication": 2, "straggler-wait": 2}})
	r.Participant(Participant{Index: 0, Device: "consumer-low",
		Phases: map[string]float64{"fine-tuning": 10, "communication": 2}, UplinkBytes: 100, DownlinkBytes: 200})
	r.EndRound(Round{Round: 2, StartSec: 14, EndSec: 26, Score: 0.75, UplinkBytes: 100, DownlinkBytes: 200,
		Selected: 2, Completed: 2,
		Phases: map[string]float64{"fine-tuning": 10, "communication": 2}})
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return tb.Bytes(), rb.Bytes()
}

func TestRecorderBytesAreReproducible(t *testing.T) {
	t1, r1 := record(t)
	t2, r2 := record(t)
	if !bytes.Equal(t1, t2) {
		t.Error("two identical recordings produced different trace bytes")
	}
	if !bytes.Equal(r1, r2) {
		t.Error("two identical recordings produced different run-log bytes")
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	if r := NewRecorder(nil, nil); r != nil {
		t.Fatalf("NewRecorder(nil, nil) = %v, want nil", r)
	}
	var r *Recorder
	r.BeginRun(RunMeta{Method: "x"})
	r.Participant(Participant{Index: 1})
	r.Flush(Flush{Size: 1})
	r.EndRound(Round{Round: 1})
	if err := r.Close(); err != nil {
		t.Fatalf("nil recorder Close: %v", err)
	}
}

func TestRecorderCloseIsIdempotentAndKeepsFirstError(t *testing.T) {
	w := &failAfter{n: 1}
	r := NewRecorder(w, nil)
	r.BeginRun(RunMeta{})
	r.EndRound(Round{Round: 1, Phases: map[string]float64{"fine-tuning": 1}})
	err := r.Close()
	if err == nil {
		t.Fatal("Close swallowed the sink write error")
	}
	if again := r.Close(); again != err {
		t.Fatalf("second Close returned %v, want the first error %v", again, err)
	}
	// A closed recorder ignores further observations without panicking.
	r.EndRound(Round{Round: 2})
}

// failAfter accepts n bytes then fails every write.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errShort
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errShort
	}
	f.n -= len(p)
	return len(p), nil
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "sink full" }

func TestParseTraceRoundTripAndSummary(t *testing.T) {
	trace, runlog := record(t)
	events, err := ParseTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("ParseTrace on our own output: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events decoded")
	}
	sum, err := Summarize(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if sum.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2 (round 0 has no span)", sum.Rounds)
	}
	if sum.SimSeconds != 26 {
		t.Errorf("SimSeconds = %v, want 26", sum.SimSeconds)
	}
	if sum.PhaseSeconds["fine-tuning"] != 20 || sum.PhaseSeconds["communication"] != 4 {
		t.Errorf("PhaseSeconds = %v, want fine-tuning 20 / communication 4", sum.PhaseSeconds)
	}
	if sum.ServerIdle != 2 {
		t.Errorf("ServerIdle = %v, want the straggler-wait total 2", sum.ServerIdle)
	}
	// Critical path: round 1's slowest participant ran 14s (p0: 10+2+1+1),
	// round 2's 12s.
	if sum.CriticalPath != 26 {
		t.Errorf("CriticalPath = %v, want 26", sum.CriticalPath)
	}
	if sum.Flushes != 1 || sum.FlushSeconds != 0.5 {
		t.Errorf("Flushes = %d/%vs, want 1/0.5s", sum.Flushes, sum.FlushSeconds)
	}
	if len(sum.Participants) != 2 || sum.Participants[0].Index != 0 {
		t.Errorf("Participants = %+v, want p0 slowest of 2", sum.Participants)
	}
	var text strings.Builder
	if err := sum.WriteText(&text, 5); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, want := range []string{"rounds: 2", "fine-tuning", "critical path", "p0"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("summary text missing %q:\n%s", want, text.String())
		}
	}
	if n := strings.Count(string(runlog), "\n"); n != 7 {
		t.Errorf("run log has %d lines, want 7 (run + 3 rounds + 3 participants)", n)
	}
}

func TestParseTraceRejectsUnknownFields(t *testing.T) {
	const alien = `{"displayTimeUnit":"ms","traceEvents":[],"otherField":1}`
	if _, err := ParseTrace(strings.NewReader(alien)); err == nil {
		t.Fatal("ParseTrace accepted a trace with unknown fields")
	}
}

func TestOrderedPhasesCanonicalFirstExtrasSorted(t *testing.T) {
	got := orderedPhases(map[string]float64{
		"zeta": 1, "communication": 1, "fine-tuning": 1, "alpha": 1, "profiling": 1,
	})
	want := []string{"profiling", "fine-tuning", "communication", "alpha", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("orderedPhases = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("orderedPhases = %v, want %v", got, want)
		}
	}
}

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricRounds, "Rounds completed.").Add(3)
	reg.Gauge(MetricClients, "Connected clients.").Set(12)
	reg.Gauge(MetricClients, "").Add(-2) // get-existing keeps the first help text
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	text := b.String()
	wantLines := []string{
		"# HELP flux_connected_clients Connected clients.",
		"# TYPE flux_connected_clients gauge",
		"flux_connected_clients 10",
		"# HELP flux_rounds_total Rounds completed.",
		"# TYPE flux_rounds_total counter",
		"flux_rounds_total 3",
	}
	if got := strings.TrimSpace(text); got != strings.Join(wantLines, "\n") {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, strings.Join(wantLines, "\n"))
	}

	rr := httptest.NewRecorder()
	reg.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	if rr.Body.String() != text {
		t.Errorf("HTTP body differs from WriteText output")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("x_total", "")
}

// TestObserveRound: the standard series mean the same thing whichever driver
// reports a round. A synchronous round (ModelVersion 0) publishes its own
// number as the version; an event-driven one publishes the core's.
func TestObserveRound(t *testing.T) {
	reg := NewRegistry()
	reg.ObserveRound(Round{Round: 1, UplinkBytes: 10, DownlinkBytes: 40})
	reg.ObserveRound(Round{Round: 2, UplinkBytes: 5, DownlinkBytes: 40, ModelVersion: 7, Stale: 3, Pending: 2})
	for _, c := range []struct {
		name string
		want float64
	}{{MetricRounds, 2}, {MetricUplinkBytes, 15}, {MetricDownlinkBytes, 80}, {MetricStaleUpdates, 3}} {
		if got := reg.Counter(c.name, "").Value(); got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
	if v, p := reg.Gauge(MetricModelVersion, "").Value(), reg.Gauge(MetricPending, "").Value(); v != 7 || p != 2 {
		t.Errorf("model version %v pending %v, want 7 and 2", v, p)
	}
	reg.ObserveRound(Round{Round: 3})
	if v := reg.Gauge(MetricModelVersion, "").Value(); v != 3 {
		t.Errorf("synchronous round 3 published version %v, want 3", v)
	}
	(*Registry)(nil).ObserveRound(Round{Round: 1}) // nil registry: no-op, no panic
}

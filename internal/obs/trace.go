package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/simtime"
)

// Chrome trace-event layout. Process 0 is the server: thread 0 carries the
// round span and its round-level phase children, thread 1 carries buffer
// flush spans under async aggregation. Process 1 is the fleet: one thread
// per participant index, holding that participant's enclosing round span
// with its per-phase children laid out sequentially in canonical phase
// order. Timestamps are simulated seconds scaled to microseconds — the
// trace timeline is simulated time, which is exactly why the bytes are
// reproducible.
const (
	pidServer       = 0
	pidParticipants = 1
	tidRounds       = 0
	tidAggregation  = 1
)

// spanEvent is one complete ("ph":"X") trace event. Field order is the
// serialization order, which encoding/json keeps stable.
type spanEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

// metaEvent is a trace metadata ("ph":"M") event naming a process/thread.
type metaEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Args any    `json:"args"`
}

// roundArgs annotates the round span with the score, traffic, and census.
type roundArgs struct {
	Score         float64 `json:"score"`
	UplinkBytes   float64 `json:"uplink_bytes"`
	DownlinkBytes float64 `json:"downlink_bytes"`
	Experts       int     `json:"experts_touched"`
	Selected      int     `json:"selected"`
	Completed     int     `json:"completed"`
	Dropped       int     `json:"dropped"`
	Pending       int     `json:"pending"`
	ModelVersion  int     `json:"model_version"`
	Stale         int     `json:"stale"`
}

// participantArgs annotates a participant's enclosing span.
type participantArgs struct {
	Device        string  `json:"device"`
	UplinkBytes   float64 `json:"uplink_bytes"`
	DownlinkBytes float64 `json:"downlink_bytes"`
	Staleness     int     `json:"staleness"`
	Dropped       bool    `json:"dropped"`
	Pending       bool    `json:"pending"`
}

// flushArgs annotates a buffer-flush span.
type flushArgs struct {
	Size    int `json:"size"`
	Carried int `json:"carried"`
	Stale   int `json:"stale"`
	Version int `json:"version"`
}

// traceWriter streams Chrome trace-event JSON. Events are emitted in a
// fixed order per round; participant thread-name metadata is emitted
// lazily at a participant's first appearance, which is itself
// deterministic because participants arrive in slot order.
type traceWriter struct {
	w    *bufio.Writer
	n    int          // events emitted so far (for comma placement)
	seen map[int]bool // participant indices with thread metadata emitted
}

func newTraceWriter(w io.Writer) *traceWriter {
	return &traceWriter{w: bufio.NewWriter(w), seen: make(map[int]bool)}
}

// begin writes the trace envelope opening and the fixed process/thread
// metadata, plus a run_meta metadata event carrying the run identity
// (viewers ignore unknown metadata names; readers of this package don't).
func (t *traceWriter) begin(meta RunMeta) error {
	if _, err := t.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n"); err != nil {
		return err
	}
	events := []metaEvent{
		{Name: "process_name", Ph: "M", Pid: pidServer, Tid: tidRounds, Args: map[string]string{"name": "flux server"}},
		{Name: "thread_name", Ph: "M", Pid: pidServer, Tid: tidRounds, Args: map[string]string{"name": "rounds"}},
		{Name: "thread_name", Ph: "M", Pid: pidServer, Tid: tidAggregation, Args: map[string]string{"name": "aggregation"}},
		{Name: "process_name", Ph: "M", Pid: pidParticipants, Tid: 0, Args: map[string]string{"name": "participants"}},
		{Name: "run_meta", Ph: "M", Pid: pidServer, Tid: tidRounds, Args: meta},
	}
	for _, ev := range events {
		if err := t.emit(ev); err != nil {
			return err
		}
	}
	return nil
}

// round serializes one round: the round span with round-level phase
// children on the server's round thread, flush spans on the aggregation
// thread, and per-participant spans with sequential phase children.
func (t *traceWriter) round(rd Round, parts []Participant) error {
	start := float64(rd.StartSec * 1e6)
	if err := t.emit(spanEvent{
		Name: fmt.Sprintf("round %d", rd.Round), Cat: "round", Ph: "X",
		Ts: start, Dur: (rd.EndSec - rd.StartSec) * 1e6,
		Pid: pidServer, Tid: tidRounds,
		Args: roundArgs{
			Score: rd.Score, UplinkBytes: rd.UplinkBytes, DownlinkBytes: rd.DownlinkBytes,
			Experts: rd.ExpertsTouched, Selected: rd.Selected, Completed: rd.Completed,
			Dropped: rd.Dropped, Pending: rd.Pending, ModelVersion: rd.ModelVersion, Stale: rd.Stale,
		},
	}); err != nil {
		return err
	}
	cursor := start
	for _, name := range simtime.PhaseOrder(nil, rd.Phases, simtime.CanonicalPhases()) {
		dur := float64(rd.Phases[name] * 1e6)
		if err := t.emit(spanEvent{
			Name: name, Cat: "phase", Ph: "X",
			Ts: cursor, Dur: dur, Pid: pidServer, Tid: tidRounds,
		}); err != nil {
			return err
		}
		cursor += dur
	}
	for _, f := range rd.Flushes {
		if err := t.emit(spanEvent{
			Name: fmt.Sprintf("flush v%d", f.Version), Cat: "flush", Ph: "X",
			Ts: start + float64(f.At*1e6), Dur: f.Dur * 1e6,
			Pid: pidServer, Tid: tidAggregation,
			Args: flushArgs{Size: f.Size, Carried: f.Carried, Stale: f.Stale, Version: f.Version},
		}); err != nil {
			return err
		}
	}
	for _, p := range parts {
		if err := t.participant(rd, p); err != nil {
			return err
		}
	}
	return nil
}

// participant serializes one cohort member: a lazy thread-name metadata
// event on first appearance, the enclosing span, and sequential per-phase
// child spans in canonical order.
func (t *traceWriter) participant(rd Round, p Participant) error {
	if !t.seen[p.Index] {
		t.seen[p.Index] = true
		name := fmt.Sprintf("p%d", p.Index)
		if p.Device != "" {
			name = fmt.Sprintf("p%d %s", p.Index, p.Device)
		}
		if err := t.emit(metaEvent{
			Name: "thread_name", Ph: "M", Pid: pidParticipants, Tid: p.Index,
			Args: map[string]string{"name": name},
		}); err != nil {
			return err
		}
	}
	start := float64(rd.StartSec * 1e6)
	keys := simtime.PhaseOrder(nil, p.Phases, simtime.CanonicalPhases())
	var total float64
	for _, k := range keys {
		total += float64(p.Phases[k] * 1e6)
	}
	if err := t.emit(spanEvent{
		Name: fmt.Sprintf("p%d", p.Index), Cat: "participant", Ph: "X",
		Ts: start, Dur: total, Pid: pidParticipants, Tid: p.Index,
		Args: participantArgs{
			Device: p.Device, UplinkBytes: p.UplinkBytes, DownlinkBytes: p.DownlinkBytes,
			Staleness: p.Staleness, Dropped: p.Dropped, Pending: p.Pending,
		},
	}); err != nil {
		return err
	}
	cursor := start
	for _, k := range keys {
		dur := float64(p.Phases[k] * 1e6)
		if err := t.emit(spanEvent{
			Name: k, Cat: "phase", Ph: "X",
			Ts: cursor, Dur: dur, Pid: pidParticipants, Tid: p.Index,
		}); err != nil {
			return err
		}
		cursor += dur
	}
	return nil
}

// emit marshals one event and appends it to the traceEvents array.
func (t *traceWriter) emit(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if t.n > 0 {
		if _, err := t.w.WriteString(",\n"); err != nil {
			return err
		}
	}
	t.n++
	_, err = t.w.Write(b)
	return err
}

// close writes the envelope footer and flushes.
func (t *traceWriter) close() error {
	if _, err := t.w.WriteString("\n]}\n"); err != nil {
		return err
	}
	return t.w.Flush()
}

// Package obs is the deterministic observability layer for the federated
// engine: span traces over simulated time (Chrome trace-event JSON,
// Perfetto-viewable), structured JSONL run logs, and a tiny live
// counter/gauge registry with Prometheus text exposition.
//
// Determinism is a hard contract, not an aspiration. Every timestamp in a
// trace or run log comes from the simulated clock, never the wall clock, and
// every record is assembled from slot-ordered per-participant data, so the
// bytes a sink produces are bit-identical across worker counts and across
// runs of the same seed. Maps are serialized through stable-ordered struct
// fields or explicitly sorted keys; nothing iterates a Go map into output.
//
// The Recorder is the funnel: round drivers buffer per-participant and
// per-flush observations during a round (on the driver goroutine, after the
// worker pool has joined) and EndRound serializes the round to whichever
// sinks are attached. A nil *Recorder is a valid no-op receiver, so callers
// on the hot path pay one nil check and zero allocations when observability
// is off.
package obs

import (
	"io"
)

// RunMeta identifies a run in the trace and run-log headers.
type RunMeta struct {
	Method       string `json:"method,omitempty"`
	Dataset      string `json:"dataset,omitempty"`
	Model        string `json:"model,omitempty"`
	Seed         string `json:"seed,omitempty"`
	Transport    string `json:"transport,omitempty"`
	Participants int    `json:"participants,omitempty"`
}

// Participant is one cohort member's view of one round: which device it ran
// on, how its simulated seconds split across phases, and what it moved over
// the network. Staleness and Pending only apply under async aggregation:
// Staleness is the model-version lag of the update when it was folded in,
// and Pending marks an update still sitting in the server buffer at round
// end (it will be carried into the next round's first flush).
type Participant struct {
	Round         int                `json:"round"`
	Index         int                `json:"participant"`
	Device        string             `json:"device,omitempty"`
	Phases        map[string]float64 `json:"phases"`
	UplinkBytes   float64            `json:"uplink_bytes"`
	DownlinkBytes float64            `json:"downlink_bytes"`
	Staleness     int                `json:"staleness,omitempty"`
	Dropped       bool               `json:"dropped,omitempty"`
	Pending       bool               `json:"pending,omitempty"`
}

// Flush is one server buffer flush under async or semi-sync aggregation.
// At is the flush trigger's offset from round start in simulated seconds,
// Dur the server aggregation time the flush cost, Size the number of
// updates folded, Carried how many of those were carry-overs from earlier
// rounds, Stale how many arrived with version lag, and Version the global
// model version after the flush.
type Flush struct {
	At      float64 `json:"at_sec"`
	Dur     float64 `json:"dur_sec"`
	Size    int     `json:"size"`
	Carried int     `json:"carried,omitempty"`
	Stale   int     `json:"stale,omitempty"`
	Version int     `json:"version"`
}

// Round is the round-level record: the simulated time window, the eval
// score, aggregate traffic, and the participation census. The census is
// conserved at run level: summed over a run, Selected equals Completed plus
// Dropped plus the final round's Pending (carried updates complete in a
// later round than they were selected in).
type Round struct {
	Round          int                `json:"round"`
	StartSec       float64            `json:"start_sec"`
	EndSec         float64            `json:"end_sec"`
	Score          float64            `json:"score"`
	UplinkBytes    float64            `json:"uplink_bytes"`
	DownlinkBytes  float64            `json:"downlink_bytes"`
	ExpertsTouched int                `json:"experts_touched,omitempty"`
	Selected       int                `json:"selected"`
	Completed      int                `json:"completed"`
	Dropped        int                `json:"dropped,omitempty"`
	Pending        int                `json:"pending,omitempty"`
	ModelVersion   int                `json:"model_version,omitempty"`
	Stale          int                `json:"stale,omitempty"`
	Phases         map[string]float64 `json:"phases,omitempty"`
	Flushes        []Flush            `json:"flushes,omitempty"`
}

// Recorder buffers one round's observations and serializes them to the
// attached sinks at EndRound. It is not goroutine-safe: all calls happen on
// the round driver's goroutine, after the participant worker pool has
// joined. A nil *Recorder is valid and every method on it is a no-op, so
// callers can hold a possibly-nil recorder and call it unconditionally.
type Recorder struct {
	trace  *traceWriter
	runlog *runlogWriter

	parts   []Participant
	flushes []Flush

	began  bool
	closed bool
	err    error
}

// NewRecorder returns a recorder writing a Chrome trace to trace and a
// JSONL run log to runlog; either writer may be nil to disable that sink.
// If both are nil, NewRecorder returns nil — the universal no-op recorder.
func NewRecorder(trace, runlog io.Writer) *Recorder {
	if trace == nil && runlog == nil {
		return nil
	}
	r := &Recorder{}
	if trace != nil {
		r.trace = newTraceWriter(trace)
	}
	if runlog != nil {
		r.runlog = newRunlogWriter(runlog)
	}
	return r
}

// BeginRun writes the trace preamble and the run-log header record.
// Idempotent; EndRound calls it with empty metadata if the driver forgot.
func (r *Recorder) BeginRun(meta RunMeta) {
	if r == nil || r.began || r.closed {
		return
	}
	r.began = true
	if r.trace != nil {
		r.keep(r.trace.begin(meta))
	}
	if r.runlog != nil {
		r.keep(r.runlog.begin(meta))
	}
}

// Participant buffers one cohort member's round observation. The Phases map
// is serialized before EndRound returns and never retained.
func (r *Recorder) Participant(p Participant) {
	if r == nil || r.closed {
		return
	}
	r.parts = append(r.parts, p)
}

// Flush buffers one server buffer-flush observation.
func (r *Recorder) Flush(f Flush) {
	if r == nil || r.closed {
		return
	}
	r.flushes = append(r.flushes, f)
}

// EndRound serializes the round plus everything buffered since the last
// EndRound, then clears the buffers. The Phases map on rd is read
// synchronously and never retained, so callers may pass live maps.
func (r *Recorder) EndRound(rd Round) {
	if r == nil || r.closed {
		return
	}
	r.BeginRun(RunMeta{})
	rd.Flushes = r.flushes
	if r.runlog != nil {
		r.keep(r.runlog.round(rd))
		for i := range r.parts {
			r.parts[i].Round = rd.Round
			r.keep(r.runlog.participant(r.parts[i]))
		}
	}
	if r.trace != nil && len(rd.Phases) > 0 {
		r.keep(r.trace.round(rd, r.parts))
	}
	r.parts = r.parts[:0]
	r.flushes = r.flushes[:0]
}

// Close finalizes the sinks (trace footer, buffered flushes) and returns
// the first write error encountered over the recorder's lifetime.
// Idempotent; any observation buffered but not yet ended is discarded.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	if r.closed {
		return r.err
	}
	r.BeginRun(RunMeta{})
	r.closed = true
	if r.trace != nil {
		r.keep(r.trace.close())
	}
	if r.runlog != nil {
		r.keep(r.runlog.close())
	}
	return r.err
}

// keep records the first error from a sink write.
func (r *Recorder) keep(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

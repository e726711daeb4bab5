package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/simtime"
)

// TraceEvent is one decoded Chrome trace event; the reading half of the
// format trace.go writes. Ts and Dur are microseconds of simulated time.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []TraceEvent `json:"traceEvents"`
}

// ParseTrace decodes a trace written by this package. Decoding is strict:
// an unknown field, or anything but whitespace after the one JSON value,
// means the bytes are not one of our traces.
func ParseTrace(r io.Reader) ([]TraceEvent, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var tf traceFile
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("obs: parse trace: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("obs: parse trace: data after the JSON value")
	}
	return tf.TraceEvents, nil
}

// ParticipantTotal aggregates one participant's time across a trace.
type ParticipantTotal struct {
	Index   int
	Device  string
	Seconds float64
	Rounds  int
}

// Summary condenses a trace: how simulated time was spent, where the
// critical path ran, and who the stragglers were.
type Summary struct {
	Rounds       int
	SimSeconds   float64            // total simulated round time
	PhaseSeconds map[string]float64 // round-level per-phase totals
	ServerIdle   float64            // straggler-wait total (server idle at deadlines)
	CriticalPath float64            // per round, the slowest participant's end-to-end time
	Flushes      int
	FlushSeconds float64            // server aggregation time across all flushes
	Participants []ParticipantTotal // sorted slowest first
}

// Summarize reads a trace and computes its Summary. The critical path sums,
// round by round, the slowest participant's end-to-end seconds (falling
// back to the round span itself when a round has no participant spans, as
// under a transport that doesn't report per-participant phases).
func Summarize(r io.Reader) (*Summary, error) {
	events, err := ParseTrace(r)
	if err != nil {
		return nil, err
	}
	s := &Summary{PhaseSeconds: make(map[string]float64)}
	perPart := make(map[int]*ParticipantTotal)
	// Round spans and the participant spans within one round share the same
	// start timestamp, so grouping by Ts recovers the per-round structure.
	slowest := make(map[float64]float64) // round start ts -> slowest participant dur
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		switch {
		case ev.Cat == "round":
			s.Rounds++
			s.SimSeconds += ev.Dur / 1e6
		case ev.Cat == "phase" && ev.Pid == pidServer:
			s.PhaseSeconds[ev.Name] += ev.Dur / 1e6
		case ev.Cat == "flush":
			s.Flushes++
			s.FlushSeconds += ev.Dur / 1e6
		case ev.Cat == "participant":
			if ev.Dur > slowest[ev.Ts] {
				slowest[ev.Ts] = ev.Dur
			}
			pt := perPart[ev.Tid]
			if pt == nil {
				pt = &ParticipantTotal{Index: ev.Tid}
				perPart[ev.Tid] = pt
			}
			if d, ok := ev.Args["device"].(string); ok && d != "" {
				pt.Device = d
			}
			pt.Seconds += ev.Dur / 1e6
			pt.Rounds++
		}
	}
	s.ServerIdle = s.PhaseSeconds["straggler-wait"]
	// Second pass for the critical path: one round span at a time, so rounds
	// without participant spans fall back to their own duration.
	for _, ev := range events {
		if ev.Ph != "X" || ev.Cat != "round" {
			continue
		}
		if d, ok := slowest[ev.Ts]; ok {
			s.CriticalPath += d / 1e6
		} else {
			s.CriticalPath += ev.Dur / 1e6
		}
	}
	s.Participants = make([]ParticipantTotal, 0, len(perPart))
	//fluxvet:unordered values are collected then sorted before use
	for _, pt := range perPart {
		s.Participants = append(s.Participants, *pt)
	}
	sort.Slice(s.Participants, func(i, j int) bool {
		if s.Participants[i].Seconds != s.Participants[j].Seconds {
			return s.Participants[i].Seconds > s.Participants[j].Seconds
		}
		return s.Participants[i].Index < s.Participants[j].Index
	})
	return s, nil
}

// WriteText prints the summary in a human-readable layout, listing at most
// topK slowest participants.
func (s *Summary) WriteText(w io.Writer, topK int) error {
	if _, err := fmt.Fprintf(w, "rounds: %d   simulated time: %.1fs (%.2fh)\n",
		s.Rounds, s.SimSeconds, s.SimSeconds/3600); err != nil {
		return err
	}
	if len(s.PhaseSeconds) > 0 {
		fmt.Fprintln(w, "phase totals:")
		var total float64
		for _, k := range simtime.PhaseOrder(nil, s.PhaseSeconds, simtime.CanonicalPhases()) {
			total += s.PhaseSeconds[k]
		}
		for _, k := range simtime.PhaseOrder(nil, s.PhaseSeconds, simtime.CanonicalPhases()) {
			v := s.PhaseSeconds[k]
			pct := 0.0
			if total > 0 {
				pct = 100 * v / total
			}
			fmt.Fprintf(w, "  %-15s %12.1fs  %5.1f%%\n", k, v, pct)
		}
	}
	fmt.Fprintf(w, "server idle (straggler-wait): %.1fs\n", s.ServerIdle)
	fmt.Fprintf(w, "critical path (slowest participant per round): %.1fs\n", s.CriticalPath)
	if s.Flushes > 0 {
		fmt.Fprintf(w, "buffer flushes: %d (server aggregation %.1fs)\n", s.Flushes, s.FlushSeconds)
	}
	if len(s.Participants) > 0 {
		fmt.Fprintln(w, "slowest participants:")
		for i, pt := range s.Participants {
			if topK > 0 && i >= topK {
				break
			}
			dev := pt.Device
			if dev == "" {
				dev = "-"
			}
			fmt.Fprintf(w, "  p%-4d %-15s %10.1fs over %d rounds\n", pt.Index, dev, pt.Seconds, pt.Rounds)
		}
	}
	return nil
}

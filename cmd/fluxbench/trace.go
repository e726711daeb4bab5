package main

import (
	"context"
	"time"

	flux "repro"
)

// span is one timed interval at a layer boundary: its name, start and end
// (nanoseconds since the tracer was created) and the span that caused it.
// All spans of one traced run share the tracer; Parent is -1 for the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is End−Start minus what the child spans cover; filled when the
	// run ends.
	Self int64 `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; the run writes them to -out when it ends.
// Single goroutine: the SDK's round loop and the replay both run on it.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// timed records fn as a child span of parent.
func (t *tracer) timed(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// children returns the spans directly under parent. Spans are appended when
// they begin, so the result is in start order.
func children(spans []span, parent int) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == parent {
			out = append(out, s)
		}
	}
	return out
}

// fillSelf sets every span's self time: its duration minus the part of that
// interval its child spans cover (overlapping children are not counted
// twice, and a child is clipped to its parent).
func fillSelf(spans []span) {
	covered := make([]int64, len(spans))
	edge := make([]int64, len(spans)) // end of the covered prefix, per parent
	for i, s := range spans {
		edge[i] = s.Start
	}
	for _, c := range spans {
		if c.Parent < 0 {
			continue
		}
		p := spans[c.Parent]
		lo, hi := c.Start, c.End
		if lo < edge[p.ID] {
			lo = edge[p.ID]
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			covered[p.ID] += hi - lo
			edge[p.ID] = hi
		}
	}
	for i := range spans {
		spans[i].Self = spans[i].dur() - covered[i]
	}
}

// durationsMS returns the durations in milliseconds of every span with the
// given name, each multiplied by its weight; spans of weight 0 are left out.
func durationsMS(spans []span, name string, weight []float64) []float64 {
	var out []float64
	for id, s := range spans {
		if s.Name == name && weight[id] != 0 {
			out = append(out, weight[id]*float64(s.dur())/1e6)
		}
	}
	return out
}

// traced wraps a Transport so Start/Round/Close become spans under a
// run → round tree, and replays one cohort participant through the layers'
// public functions after every inner round (see layers.go). It reports the
// inner transport's name, so results are indistinguishable from an
// untraced run's.
type traced struct {
	inner flux.Transport
	tr    *tracer
	pr    *prober
	meter *speedMeter

	run   int // root span
	round int // open round span, -1 between rounds
	// roundOf maps a round span's id to its 0-based round index.
	roundOf map[int]int
}

func newTraced(inner flux.Transport, tr *tracer, pr *prober, meter *speedMeter) *traced {
	t := &traced{inner: inner, tr: tr, pr: pr, meter: meter, round: -1, roundOf: make(map[int]int)}
	t.run = tr.begin("run", -1)
	return t
}

func (t *traced) Name() string { return t.inner.Name() }

func (t *traced) Start(ctx context.Context, env *flux.Env, method string) error {
	id := t.tr.begin("transport.start", t.run)
	err := t.inner.Start(ctx, env, method)
	t.tr.end(id)
	if err != nil {
		return err
	}
	return t.pr.bind(env, method, t.inner.Name())
}

func (t *traced) Round(ctx context.Context, r int) (flux.RoundStats, error) {
	t.round = t.tr.begin("round", t.run)
	t.roundOf[t.round] = r
	id := t.tr.begin("transport.round", t.round)
	stats, err := t.inner.Round(ctx, r)
	t.tr.end(id)
	if err != nil {
		return stats, err
	}
	id = t.tr.begin("replay", t.round)
	t.pr.replay(t.tr, id, r)
	t.tr.end(id)
	return stats, nil
}

// onEvent closes the open round span: the SDK emits the RoundEvent after it
// has evaluated the round, so the span covers transport + replay + evaluate
// + the SDK's own bookkeeping. The calibration sample comes after, outside
// every span.
func (t *traced) onEvent(ev flux.RoundEvent) {
	if t.round >= 0 {
		t.tr.end(t.round)
		t.round = -1
	}
	t.meter.onEvent(ev)
}

func (t *traced) Close() error {
	id := t.tr.begin("transport.close", t.run)
	err := t.inner.Close()
	t.tr.end(id)
	t.tr.end(t.run)
	return err
}

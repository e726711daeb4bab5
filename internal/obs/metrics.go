package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Standard metric names shared by the TCP server and the in-process engine,
// so a dashboard scraping either sees the same series.
const (
	MetricRounds        = "flux_rounds_total"
	MetricUplinkBytes   = "flux_uplink_bytes_total"
	MetricDownlinkBytes = "flux_downlink_bytes_total"
	MetricStaleUpdates  = "flux_stale_updates_total"
	MetricModelVersion  = "flux_model_version"
	MetricPending       = "flux_pending_updates"
	MetricClients       = "flux_connected_clients"
)

// Metric is one counter or gauge. The value is an atomic float64, so update
// paths never take the registry lock.
type Metric struct {
	name string
	help string
	typ  string // "counter" or "gauge"
	bits atomic.Uint64
}

// Value returns the current value.
func (m *Metric) Value() float64 { return math.Float64frombits(m.bits.Load()) }

// Set replaces the value. Intended for gauges.
func (m *Metric) Set(v float64) { m.bits.Store(math.Float64bits(v)) }

// Add increments the value by v.
func (m *Metric) Add(v float64) {
	for {
		old := m.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if m.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Registry is a tiny metric registry with Prometheus text exposition. It is
// goroutine-safe; Counter and Gauge are get-or-create, so callers look
// metrics up by name wherever they update them without wiring handles
// around.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: make(map[string]*Metric)} }

// Counter returns the counter registered under name, creating it with the
// given help text on first use. Registering the same name as both a counter
// and a gauge is a programming error and panics.
func (r *Registry) Counter(name, help string) *Metric { return r.metric(name, help, "counter") }

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Metric { return r.metric(name, help, "gauge") }

func (r *Registry) metric(name, help, typ string) *Metric {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = make(map[string]*Metric)
	}
	if m, ok := r.byName[name]; ok {
		if m.typ != typ {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, m.typ, typ))
		}
		return m
	}
	m := &Metric{name: name, help: help, typ: typ}
	r.byName[name] = m
	return m
}

// RegisterStandard registers the engine's standard metric set with its help
// text, all at zero. Exposition endpoints call it as soon as the registry is
// scrapeable, so an early scrape — before participants connect or the first
// round completes — sees the full series set rather than a partial one.
func RegisterStandard(r *Registry) {
	r.Counter(MetricRounds, "Federated rounds completed.")
	r.Counter(MetricUplinkBytes, "Participant-to-server update payload bytes.")
	r.Counter(MetricDownlinkBytes, "Server-to-participant broadcast payload bytes.")
	r.Counter(MetricStaleUpdates, "Updates aggregated with staleness > 0.")
	r.Gauge(MetricModelVersion, "Global model version (aggregations applied).")
	r.Gauge(MetricPending, "Updates buffered awaiting aggregation.")
	r.Gauge(MetricClients, "Participants currently connected.")
}

// ObserveRound records one completed round in the standard series — the one
// place their meaning is defined, whichever driver (Experiment.Run, the TCP
// server) reports the round. Synchronous aggregation leaves rd.ModelVersion
// zero and publishes exactly one version per round. A nil registry is a no-op.
func (r *Registry) ObserveRound(rd Round) {
	if r == nil {
		return
	}
	version := rd.ModelVersion
	if version == 0 {
		version = rd.Round
	}
	r.Counter(MetricRounds, "").Add(1)
	r.Counter(MetricUplinkBytes, "").Add(rd.UplinkBytes)
	r.Counter(MetricDownlinkBytes, "").Add(rd.DownlinkBytes)
	r.Counter(MetricStaleUpdates, "").Add(float64(rd.Stale))
	r.Gauge(MetricModelVersion, "").Set(float64(version))
	r.Gauge(MetricPending, "").Set(float64(rd.Pending))
}

// WriteText writes the registry in Prometheus text exposition format,
// sorted by metric name so the output is stable.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	ms := make([]*Metric, 0, len(r.byName))
	for _, m := range r.byName {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", m.name, strconv.FormatFloat(m.Value(), 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}

// ServeHTTP exposes the registry as a Prometheus-text scrape endpoint, so a
// *Registry can be mounted directly on an HTTP mux as /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WriteText(w)
}

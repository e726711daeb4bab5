//fluxvet:allow wallclock real-TCP transport tests run against real sockets, so watchdog timeouts and deadlines legitimately use real time

package fed

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// testServer deploys global for the given fleet size and round budget on the
// engine defaults — the Env flux.Serve builds: no shards, devices or test set.
func testServer(global *moe.Model, clients, rounds int) *Server {
	cfg := DefaultConfig()
	cfg.Participants, cfg.MaxRounds = clients, rounds
	return &Server{Env: &Env{Cfg: cfg, Global: global}, IOTimeout: 5 * time.Second}
}

func TestTCPFederatedRound(t *testing.T) {
	modelCfg := moe.Uniform("tcp-test", 48, 12, 16, 2, 4, 2, 64)
	global := moe.MustNew(modelCfg, tensor.Named("tcp"))
	ds := data.Generate(data.GSM8K(), 48, 40, tensor.NewRNG(1))
	shards := data.PartitionNonIID(ds.Samples, 3, 1.0, tensor.NewRNG(2))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	snapshot := global.Clone()
	srv := testServer(global, 3, 2)
	srv.Metrics = obs.NewRegistry()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ServeContext(context.Background(), ln) }()

	var wg sync.WaitGroup
	finals := make([]*moe.Model, 3)
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			finals[i], errs[i] = RunClientContext(context.Background(), ClientConfig{
				Participant: i,
				Addr:        ln.Addr().String(),
				Shard:       shards[i],
				Batch:       3,
				LocalIters:  1,
				LR:          0.5,
			})
		}(i)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if finals[i] == nil {
			t.Fatalf("client %d got no final model", i)
		}
	}

	// The live metrics are fed from the core's per-round report: two rounds,
	// one model version each, every peer's full-model payload both ways.
	metric := func(name string) float64 { return srv.Metrics.Counter(name, "").Value() }
	if version := srv.Metrics.Gauge(obs.MetricModelVersion, "").Value(); metric(obs.MetricRounds) != 2 || version != 2 {
		t.Errorf("metrics report %v rounds at model version %v, want 2 and 2", metric(obs.MetricRounds), version)
	}
	wantUp := 2 * 3 * UpdateBytes(ExtractUpdate(global, 0, 1, IdentityTuning(modelCfg)))
	if metric(obs.MetricUplinkBytes) != wantUp || metric(obs.MetricDownlinkBytes) <= 0 {
		t.Errorf("metrics report %v uplink / %v downlink bytes, want %v / >0",
			metric(obs.MetricUplinkBytes), metric(obs.MetricDownlinkBytes), wantUp)
	}

	// The server's global model must have moved, and every client must hold
	// the identical final model.
	moved := false
	for l := range global.Layers {
		for e := range global.Layers[l].Experts {
			if !global.Layers[l].Experts[e].W1.Equal(snapshot.Layers[l].Experts[e].W1, 0) {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("training over TCP did not change the model")
	}
	g := tensor.NewRNG(3)
	seq := make([]int, 10)
	for i := range seq {
		seq[i] = g.Intn(48)
	}
	ref := global.ForwardWS(nil, seq, nil, -1)
	for i, m := range finals {
		if !m.ForwardWS(nil, seq, nil, -1).Equal(ref, 1e-9) {
			t.Fatalf("client %d final model differs from server's", i)
		}
	}
}

func TestRunClientNoData(t *testing.T) {
	if _, err := RunClientContext(context.Background(), ClientConfig{Participant: 0, Addr: "127.0.0.1:1"}); err == nil {
		t.Fatal("expected error for empty shard")
	}
}

// TestRunClientRejectsBadConfig: the client has no training defaults of its
// own — a non-positive Batch, LocalIters or LR is an error naming the field,
// returned before anything is dialed.
func TestRunClientRejectsBadConfig(t *testing.T) {
	ds := data.Generate(data.GSM8K(), 48, 8, tensor.NewRNG(5))
	good := ClientConfig{Addr: "127.0.0.1:1", Shard: ds.Samples, Batch: 3, LocalIters: 1, LR: 0.5}
	for _, tc := range []struct {
		want   string
		mutate func(c *ClientConfig)
	}{
		{"Batch", func(c *ClientConfig) { c.Batch = 0 }},
		{"LocalIters", func(c *ClientConfig) { c.LocalIters = -1 }},
		{"LR", func(c *ClientConfig) { c.LR = 0 }},
		{"LR", func(c *ClientConfig) { c.LR = math.NaN() }},
	} {
		cfg := good
		tc.mutate(&cfg)
		_, err := RunClientContext(context.Background(), cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunClientContext = %v, want an error naming %q", err, tc.want)
		}
	}
}

// TestTCPTuningSubset: a raw peer uploads two experts of one layer. The core
// aggregates exactly those, and every expert absent from the round's updates
// stays bit-identical.
func TestTCPTuningSubset(t *testing.T) {
	modelCfg := moe.Uniform("tcp-sub", 48, 12, 16, 2, 4, 2, 64)
	global := moe.MustNew(modelCfg, tensor.Named("tcp-sub"))
	snapshot := global.Clone()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := testServer(global, 1, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ServeContext(context.Background(), ln) }()

	conn, dec := dialHello(t, ln.Addr().String(), 0)
	defer conn.Close()
	var msg RoundMsg
	if err := dec.Decode(&msg); err != nil {
		t.Fatal(err)
	}
	moved, err := moe.DecodeBytes(msg.Model)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range moved.Layers[0].Experts {
		e.W1.Scale(2)
	}
	u := ExtractUpdate(moved, 0, 1, [][]int{{0, 1}, nil})
	if err := gob.NewEncoder(conn).Encode(UpdateMsg{Participant: 0, Weight: 1, Experts: u.Experts}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&msg); err != nil || !msg.Final {
		t.Fatalf("final broadcast: %v (final=%v)", err, msg.Final)
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	for l, layer := range snapshot.Layers {
		for e, before := range layer.Experts {
			uploaded := l == 0 && e < 2
			want := before
			if uploaded {
				want = moved.Layers[l].Experts[e]
			}
			if !sameBits(global.Layers[l].Experts[e].FlattenTo(nil), want.FlattenTo(nil)) {
				t.Errorf("layer %d expert %d (uploaded=%v) does not hold the expected parameters", l, e, uploaded)
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// dialHello opens a raw gob connection and sends a Hello with the given id.
func dialHello(t *testing.T, addr string, id int) (net.Conn, *gob.Decoder) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(conn).Encode(Hello{Participant: id}); err != nil {
		t.Fatal(err)
	}
	return conn, gob.NewDecoder(conn)
}

func TestServeRejectsDuplicateHello(t *testing.T) {
	modelCfg := moe.Uniform("tcp-dup", 48, 12, 16, 1, 2, 1, 32)
	global := moe.MustNew(modelCfg, tensor.Named("tcp-dup"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	srv := testServer(global, 2, 0)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ServeContext(context.Background(), ln) }()

	conn0, dec0 := dialHello(t, ln.Addr().String(), 0)
	defer conn0.Close()
	dup, dupDec := dialHello(t, ln.Addr().String(), 0) // same participant id
	defer dup.Close()

	// The duplicate's connection must be closed without ever receiving a
	// round message.
	var dupMsg RoundMsg
	dup.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := dupDec.Decode(&dupMsg); err == nil {
		t.Fatal("duplicate participant received a broadcast")
	}

	// A distinct id completes the fleet and the deployment proceeds.
	conn1, dec1 := dialHello(t, ln.Addr().String(), 1)
	defer conn1.Close()
	for _, dec := range []*gob.Decoder{dec0, dec1} {
		var msg RoundMsg
		if err := dec.Decode(&msg); err != nil {
			t.Fatal(err)
		}
		if !msg.Final {
			t.Fatal("expected the final broadcast (0-round deployment)")
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}

// TestHostilePeerID: a peer id is whatever Hello says. With a recorder
// attached the core writes a participant record per cohort slot, and the
// deployment's Env has no device table — an id of 1<<30 (or a negative one)
// must come out as a record with no device name, never as an index.
func TestHostilePeerID(t *testing.T) {
	global := moe.MustNew(moe.Uniform("tcp-id", 48, 12, 16, 1, 2, 1, 32), tensor.Named("tcp-id"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := testServer(global, 2, 1)
	var trace, runlog bytes.Buffer
	rec := obs.NewRecorder(&trace, &runlog)
	srv.Env.SetRecorder(rec)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ServeContext(context.Background(), ln) }()

	for _, id := range []int{1 << 30, -7} {
		conn, dec := dialHello(t, ln.Addr().String(), id)
		defer conn.Close()
		go func(id int) {
			var msg RoundMsg
			for dec.Decode(&msg) == nil && !msg.Final {
				gob.NewEncoder(conn).Encode(UpdateMsg{Participant: id, Weight: 1})
			}
		}(id)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deployment with out-of-table peer ids did not complete")
	}
	rec.EndRound(obs.Round{Round: 1})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"participant":1073741824`, `"participant":-7`} {
		if !strings.Contains(runlog.String(), want) {
			t.Errorf("run log has no record for %s:\n%s", want, runlog.String())
		}
	}
}

func TestAcceptDropsSilentConnection(t *testing.T) {
	modelCfg := moe.Uniform("tcp-silent", 48, 12, 16, 1, 2, 1, 32)
	global := moe.MustNew(modelCfg, tensor.Named("tcp-silent"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	srv := testServer(global, 1, 0)
	srv.IOTimeout = 200 * time.Millisecond
	acceptErr := make(chan error, 1)
	go func() { acceptErr <- srv.Accept(context.Background(), ln) }()

	// A connection that never sends a Hello must not stall the fleet.
	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	time.Sleep(250 * time.Millisecond) // let the hello deadline expire

	conn, _ := dialHello(t, ln.Addr().String(), 0)
	defer conn.Close()
	select {
	case err := <-acceptErr:
		if err != nil {
			t.Fatalf("accept failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("accept did not complete after the silent connection")
	}
	srv.Close()
}

func TestServeContextCancelDuringAccept(t *testing.T) {
	modelCfg := moe.Uniform("tcp-cancel", 48, 12, 16, 1, 2, 1, 32)
	global := moe.MustNew(modelCfg, tensor.Named("tcp-cancel"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	srv := testServer(global, 2, 3)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ServeContext(ctx, ln) }()

	cancel()
	select {
	case err := <-serveErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeContext did not return after cancellation")
	}
}

func TestRunClientContextCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		// Accept and hold the connection without ever broadcasting.
		conn, err := ln.Accept()
		if err == nil {
			defer conn.Close()
			var h Hello
			gob.NewDecoder(conn).Decode(&h)
			time.Sleep(10 * time.Second)
		}
	}()

	ds := data.Generate(data.GSM8K(), 48, 8, tensor.NewRNG(7))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunClientContext(ctx, ClientConfig{
			Participant: 0,
			Addr:        ln.Addr().String(),
			Shard:       ds.Samples,
			Batch:       3,
			LocalIters:  1,
			LR:          0.5,
		})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not return after cancellation")
	}
}

// malformedUpdates are the ways peer 1's otherwise well-formed full-model
// update is corrupted, one per case; FuzzCheckUpdate seeds its corpus from
// the same list.
var (
	malformedKey     = ExpertKey{Layer: 1, Expert: 2}
	malformedUpdates = []struct {
		name    string
		corrupt func(u *UpdateMsg)
	}{
		{"participant is not the peer", func(u *UpdateMsg) { u.Participant = 0 }},
		{"layer out of range", func(u *UpdateMsg) { u.Experts[ExpertKey{Layer: 9, Expert: 0}] = u.Experts[malformedKey] }},
		{"expert out of range", func(u *UpdateMsg) { u.Experts[ExpertKey{Layer: 0, Expert: -1}] = u.Experts[malformedKey] }},
		{"short parameter slice", func(u *UpdateMsg) { u.Experts[malformedKey] = u.Experts[malformedKey][:3] }},
		{"length differs from the other peer's", func(u *UpdateMsg) { u.Experts[malformedKey] = append(u.Experts[malformedKey], 1, 2, 3) }},
		{"NaN parameter", func(u *UpdateMsg) { u.Experts[malformedKey][5] = math.NaN() }},
		{"infinite parameter", func(u *UpdateMsg) { u.Experts[malformedKey][0] = math.Inf(-1) }},
		{"parameter beyond FP32", func(u *UpdateMsg) { u.Experts[malformedKey][1] = 1e300 }},
		{"NaN weight", func(u *UpdateMsg) { u.Weight = math.NaN() }},
		{"negative weight", func(u *UpdateMsg) { u.Weight = -1 }},
		{"weight too small to invert", func(u *UpdateMsg) { u.Weight = 1e-310 }},
		{"weight beyond any sample count", func(u *UpdateMsg) { u.Weight = 1e300 }},
	}
)

// TestRunRoundRejectsMalformedUpdates sends RunRound one well-formed update
// (peer 0, parameters moved off the global's so any aggregation would show)
// and one malformed one (peer 1) per case. Every case must fail the round
// with an error naming peer 1, without panicking, and leave Global bit for
// bit as it was and the core's round report empty (nothing reached
// FinishRound).
func TestRunRoundRejectsMalformedUpdates(t *testing.T) {
	for _, tc := range malformedUpdates {
		t.Run(tc.name, func(t *testing.T) {
			global := moe.MustNew(moe.Uniform("tcp-bad", 48, 12, 16, 2, 4, 2, 32), tensor.Named("tcp-bad"))
			snapshot := global.Clone()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			srv := testServer(global, 2, 1)
			defer srv.Close()

			var wg sync.WaitGroup
			for id := 0; id < 2; id++ {
				conn, dec := dialHello(t, ln.Addr().String(), id)
				defer conn.Close()
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					var msg RoundMsg
					if err := dec.Decode(&msg); err != nil {
						t.Errorf("peer %d: %v", id, err)
						return
					}
					moved := snapshot.Clone()
					for _, layer := range moved.Layers {
						for _, e := range layer.Experts {
							e.W1.Scale(2)
						}
					}
					u := ExtractUpdate(moved, id, 1, IdentityTuning(moved.Cfg))
					out := UpdateMsg{Participant: u.Participant, Weight: u.Weight, Experts: u.Experts}
					if id == 1 {
						tc.corrupt(&out)
					}
					if err := gob.NewEncoder(conn).Encode(out); err != nil {
						t.Errorf("peer %d: %v", id, err)
					}
				}(id)
			}
			if err := srv.Accept(context.Background(), ln); err != nil {
				t.Fatal(err)
			}
			err = srv.RunRound(context.Background(), 0)
			wg.Wait()
			if err == nil || !strings.Contains(err.Error(), "update from 1 rejected") {
				t.Fatalf("RunRound error = %v, want peer 1's update rejected", err)
			}
			for l, layer := range snapshot.Layers {
				for e, want := range layer.Experts {
					if !sameBits(global.Layers[l].Experts[e].FlattenTo(nil), want.FlattenTo(nil)) {
						t.Fatalf("layer %d expert %d moved although the round failed", l, e)
					}
				}
			}
			if o := srv.Env.TakeRoundObs(); o != (RoundObs{}) {
				t.Fatalf("rejected round left a round report behind: %+v", o)
			}
		})
	}
}

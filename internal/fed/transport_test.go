//fluxvet:allow wallclock real-TCP transport tests run against real sockets, so watchdog timeouts and deadlines legitimately use real time

package fed

import (
	"bytes"
	"context"
	"encoding"
	"errors"
	"maps"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tensor"
)

// testServer deploys global for the given fleet size and round budget on the
// engine defaults — the Env flux.Serve builds: no shards, devices or test set.
func testServer(global *moe.Model, clients, rounds int) *Server {
	cfg := DefaultConfig()
	cfg.Participants, cfg.MaxRounds = clients, rounds
	return &Server{Env: &Env{Cfg: cfg, Global: global}, IOTimeout: 5 * time.Second}
}

// fullSGD is a full-model method without simulated time: local SGD over the
// round's batch on every expert, every expert uploaded, the whole model
// broadcast.
type fullSGD struct{}

func (fullSGD) Name() string { return "full-sgd" }

func (fullSGD) Round(env *Env, r int, _ []int) Participant {
	return func(s *Scratch, _, i int) SlotResult {
		local := s.LocalClone(env.Global)
		LocalSGD(local, s.Workspace(), s.Grads(local), env.Batch(i, r), env.Cfg.LocalIters, env.Cfg.LR)
		u := s.ExtractUpdate(local, i, float64(len(env.Shards[i])), IdentityTuning(local.Cfg))
		return SlotResult{Update: u, Bytes: UpdateBytes(u), DownBytes: simtime.ModelBytes(local.Cfg)}
	}
}

// clientEnv is a client's replica of a run of n participants on global's
// architecture: shards over a synthetic dataset, batch 3, one local
// iteration at learning rate 0.5.
func clientEnv(global *moe.Model, n int) *Env {
	cfg := DefaultConfig()
	cfg.Participants, cfg.Batch, cfg.LocalIters, cfg.LR = n, 3, 1, 0.5
	ds := data.Generate(data.GSM8K(), global.Cfg.VocabSize, 40, tensor.NewRNG(1))
	return &Env{Cfg: cfg, Global: global.CloneInto(nil), Shards: data.PartitionNonIID(ds.Samples, n, 1.0, tensor.NewRNG(2))}
}

func TestTCPFederatedRound(t *testing.T) {
	modelCfg := moe.Uniform("tcp-test", 48, 12, 16, 2, 4, 2, 64)
	global := moe.MustNew(modelCfg, tensor.Named("tcp"))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	snapshot := global.CloneInto(nil)
	// The replicas copy global before the server starts writing it: only
	// the TCP exchange orders a copy made later before the server's
	// aggregation, and the race detector does not see that order.
	envs := make([]*Env, 3)
	for i := range envs {
		envs[i] = clientEnv(global, 3)
	}
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
				Env:         envs[i],
				Method:      fullSGD{},
				Index:       i,
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
	env := clientEnv(moe.MustNew(moe.Uniform("tcp-empty", 48, 12, 16, 1, 2, 1, 32), tensor.Named("tcp-empty")), 1)
	env.Shards[0] = nil
	if _, err := RunClientContext(context.Background(), ClientConfig{Addr: "127.0.0.1:1", Env: env, Method: fullSGD{}}); err == nil {
		t.Fatal("expected error for empty shard")
	}
}

// TestRunClientRejectsBadConfig: a client without an Env holding a model,
// without a Method, or with an Index outside its Env fails with an error
// naming the field, before anything is dialed.
func TestRunClientRejectsBadConfig(t *testing.T) {
	global := moe.MustNew(moe.Uniform("tcp-cfg", 48, 12, 16, 1, 2, 1, 32), tensor.Named("tcp-cfg"))
	good := ClientConfig{Addr: "127.0.0.1:1", Env: clientEnv(global, 2), Method: fullSGD{}, Index: 1}
	for _, tc := range []struct {
		want   string
		mutate func(c *ClientConfig)
	}{
		{"Env", func(c *ClientConfig) { c.Env = nil }},
		{"Env", func(c *ClientConfig) { e := *c.Env; e.Global = nil; c.Env = &e }},
		{"Method", func(c *ClientConfig) { c.Method = nil }},
		{"Index", func(c *ClientConfig) { c.Index = 2 }},
		{"Index", func(c *ClientConfig) { c.Index = -1 }},
	} {
		cfg := good
		tc.mutate(&cfg)
		_, err := RunClientContext(context.Background(), cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunClientContext = %v, want an error naming %q", err, tc.want)
		}
	}
}

// TestRunClientValidatesBroadcast: a raw server sends a LLaMA-architecture
// client a broadcast it must not train on. A DeepSeek model fails at the
// message bound (it is the larger), a smaller model of another config fails
// the config check, a first broadcast of round 5 fails the round check, and
// a broadcast whose connection closes mid-tensor fails the decode; each
// error names the round. A client whose broadcast failed to decode drops its
// replica's model.
func TestRunClientValidatesBroadcast(t *testing.T) {
	llama := moe.MustNew(moe.SimConfigLLaMATrain(), tensor.Named("tcp-llama"))
	small := moe.SimConfigLLaMATrain()
	small.ExpertsPerLayer = []int{8, 8, 8, 8, 8}
	for _, tc := range []struct {
		name  string
		cfg   moe.Config
		round int
		cut   bool // send the frame's first half, then close
		want  []string
	}{
		{"deepseek", moe.SimConfigDeepSeekTrain(), 0, false, []string{"round 0 broadcast from", "exceeds the"}},
		{"five layers", small, 0, false, []string{"round 0 broadcast", "holds model config"}},
		{"skipped rounds", llama.Cfg, 5, false, []string{"broadcast of round 5, want round 0"}},
		{"cut mid-tensor", llama.Cfg, 0, true, []string{"round 0 broadcast", "unexpected EOF"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob, err := moe.MustNew(tc.cfg, tensor.Named("tcp-other")).EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			msg := frame(t, RoundMsg{Round: tc.round, Model: blob})
			if tc.cut {
				msg = msg[:len(msg)/2]
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				if _, err := ReadFrame(conn, nil, helloSize); err != nil {
					return
				}
				conn.Write(msg)
				if tc.cut {
					return
				}
				var b [1]byte
				conn.Read(b[:]) // hold the connection until the client leaves
			}()
			env := clientEnv(llama, 1)
			_, err = RunClientContext(context.Background(), ClientConfig{
				Addr: ln.Addr().String(), Env: env, Method: fullSGD{}, IOTimeout: 10 * time.Second,
			})
			for _, want := range tc.want {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("RunClientContext = %v, want an error containing %q", err, want)
				}
			}
			if (tc.name == "five layers" || tc.cut) && env.Global != nil {
				t.Fatal("the replica's model outlived a broadcast that failed to decode into it")
			}
		})
	}
}

// TestTCPTuningSubset: a raw peer uploads two experts of one layer. The core
// aggregates exactly those, and every expert absent from the round's updates
// stays bit-identical.
func TestTCPTuningSubset(t *testing.T) {
	modelCfg := moe.Uniform("tcp-sub", 48, 12, 16, 2, 4, 2, 64)
	global := moe.MustNew(modelCfg, tensor.Named("tcp-sub"))
	snapshot := global.CloneInto(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := testServer(global, 1, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ServeContext(context.Background(), ln) }()

	conn := dialHello(t, ln.Addr().String(), 0)
	defer conn.Close()
	var msg RoundMsg
	if err := conn.recv(&msg); err != nil {
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
	if err := conn.send(SlotResult{Update: u}); err != nil {
		t.Fatal(err)
	}
	if err := conn.recv(&msg); err != nil || !msg.Final {
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

// rawConn speaks the frame protocol directly, so a test can send what a real
// client never would.
type rawConn struct {
	net.Conn
	buf []byte
}

// recv reads a broadcast into msg.
func (c *rawConn) recv(msg *RoundMsg) error {
	var err error
	if c.buf, err = ReadFrame(c, c.buf, 1<<30); err != nil {
		return err
	}
	return msg.UnmarshalBinary(c.buf)
}

// send writes one frame holding v's body.
func (c *rawConn) send(v encoding.BinaryMarshaler) error {
	b, err := v.MarshalBinary()
	if err != nil {
		return err
	}
	return WriteFrame(c, b)
}

// frame returns the frame holding v's body.
func frame(tb testing.TB, v encoding.BinaryMarshaler) []byte {
	tb.Helper()
	b, err := v.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, b); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// dialHello opens a raw connection and sends a Hello with the given id.
func dialHello(t *testing.T, addr string, id int) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &rawConn{Conn: conn}
	if err := c.send(Hello{Participant: id}); err != nil {
		t.Fatal(err)
	}
	return c
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

	conn0 := dialHello(t, ln.Addr().String(), 0)
	defer conn0.Close()
	dup := dialHello(t, ln.Addr().String(), 0) // same participant id
	defer dup.Close()

	// The duplicate's connection must be closed without ever receiving a
	// round message.
	var dupMsg RoundMsg
	dup.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := dup.recv(&dupMsg); err == nil {
		t.Fatal("duplicate participant received a broadcast")
	}

	// A distinct id completes the fleet and the deployment proceeds.
	conn1 := dialHello(t, ln.Addr().String(), 1)
	defer conn1.Close()
	for _, conn := range []*rawConn{conn0, conn1} {
		var msg RoundMsg
		if err := conn.recv(&msg); err != nil {
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
		conn := dialHello(t, ln.Addr().String(), id)
		defer conn.Close()
		go func(id int) {
			var msg RoundMsg
			for conn.recv(&msg) == nil && !msg.Final {
				conn.send(SlotResult{Update: UpdateMsg{Participant: id, Weight: 1}})
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

	conn := dialHello(t, ln.Addr().String(), 0)
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
			ReadFrame(conn, nil, helloSize)
			time.Sleep(10 * time.Second)
		}
	}()

	global := moe.MustNew(moe.Uniform("tcp-cancel", 48, 12, 16, 1, 2, 1, 32), tensor.Named("tcp-cancel"))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunClientContext(ctx, ClientConfig{
			Participant: 0,
			Addr:        ln.Addr().String(),
			Env:         clientEnv(global, 1),
			Method:      fullSGD{},
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
// bit as it was, with no round report (the core's check rejects the round
// before it aggregates or reports anything).
func TestRunRoundRejectsMalformedUpdates(t *testing.T) {
	for _, tc := range malformedUpdates {
		t.Run(tc.name, func(t *testing.T) {
			global := moe.MustNew(moe.Uniform("tcp-bad", 48, 12, 16, 2, 4, 2, 32), tensor.Named("tcp-bad"))
			snapshot := global.CloneInto(nil)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			srv := testServer(global, 2, 1)
			defer srv.Close()

			var wg sync.WaitGroup
			for id := 0; id < 2; id++ {
				conn := dialHello(t, ln.Addr().String(), id)
				defer conn.Close()
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					var msg RoundMsg
					if err := conn.recv(&msg); err != nil {
						t.Errorf("peer %d: %v", id, err)
						return
					}
					moved := snapshot.CloneInto(nil)
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
					if err := conn.send(SlotResult{Update: out, Bytes: UpdateBytes(out)}); err != nil {
						t.Errorf("peer %d: %v", id, err)
					}
				}(id)
			}
			if err := srv.Accept(context.Background(), ln); err != nil {
				t.Fatal(err)
			}
			stats, err := srv.RunRound(context.Background(), 0)
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
			if !reflect.DeepEqual(stats, RoundStats{}) {
				t.Fatalf("rejected round returned a report: %+v", stats)
			}
		})
	}
}

// TestUpdateEncodingIsCanonical: one update built in two map insertion
// orders encodes to the same bytes, and decodes to its every bit, NaN
// payloads and −0 included.
func TestUpdateEncodingIsCanonical(t *testing.T) {
	keys := []ExpertKey{{2, 1}, {0, 3}, {1, 0}, {0, 0}, {2, 0}}
	params := func(k ExpertKey) []float64 {
		return []float64{float64(k.Layer), math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(10*k.Layer+k.Expert)), math.Inf(-1)}
	}
	build := func(order []ExpertKey) Update {
		u := Update{Participant: 7, Weight: 2.5, Experts: make(map[ExpertKey][]float64)}
		for _, k := range order {
			u.Experts[k] = params(k)
		}
		return u
	}
	reversed := slices.Clone(keys)
	slices.Reverse(reversed)
	forward, backward := build(keys), build(reversed)
	a, err := forward.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := backward.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("insertion order changed the update's bytes")
	}
	var got Update
	if err := got.UnmarshalBinary(a); err != nil {
		t.Fatal(err)
	}
	if got.Participant != 7 || got.Weight != 2.5 || len(got.Experts) != len(keys) {
		t.Fatalf("decoded %d/%v with %d experts", got.Participant, got.Weight, len(got.Experts))
	}
	for _, k := range keys {
		if !sameBits(got.Experts[k], params(k)) {
			t.Fatalf("expert %v decoded as %v", k, got.Experts[k])
		}
	}
}

// TestMessageBoundFitsFullModel: for both stand-ins, a full-model broadcast
// and a full-model reply, framed, pass the deployment's message bound.
func TestMessageBoundFitsFullModel(t *testing.T) {
	for _, cfg := range []moe.Config{moe.SimConfigLLaMATrain(), moe.SimConfigDeepSeekTrain()} {
		m := moe.MustNew(cfg, tensor.Named("bound"))
		blob, err := m.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		u := ExtractUpdate(m, 0, 1, IdentityTuning(cfg))
		slot := SlotResult{Update: u, Bytes: UpdateBytes(u), DownBytes: 1,
			Phases: map[simtime.Phase]float64{simtime.PhaseFineTuning: 1, simtime.PhaseComm: 1}}
		for _, msg := range []encoding.BinaryMarshaler{RoundMsg{Round: 3, Model: blob}, slot} {
			if _, err := ReadFrame(bytes.NewReader(frame(t, msg)), nil, maxMessageBytes(cfg)); err != nil {
				t.Errorf("%s: a full-model %T fails the bound: %v", cfg.Name, msg, err)
			}
		}
	}
}

// replyWire returns one reply of slot through both ends of a connection,
// conn standing in for the socket, and the server's end: the client writes
// the frame as the parts of one vectored write, its parameters views of the
// update's own, and the server reads it into its arena's memory and decodes
// it there into its slot, as the two ends of one connection do every round.
func replyWire(tb testing.TB, slot SlotResult, limit int) (roundTrip func(), server *peer) {
	var conn bytes.Buffer
	client := &peer{}
	server = &peer{limit: limit}
	return func() {
		beginFrame(&client.enc)
		client.keys = encodeSlot(&client.enc, slot, client.keys)
		if err := client.write(&conn, frameParts(&client.enc)); err != nil {
			tb.Fatal(err)
		}
		if err := server.readSlot(&conn); err != nil {
			tb.Fatal(err)
		}
	}, server
}

// fullSlot is a full-model upload of m (every expert, as fmd sends it).
func fullSlot(m *moe.Model) SlotResult {
	u := ExtractUpdate(m, 1, 6, IdentityTuning(m.Cfg))
	return SlotResult{Update: u, Bytes: UpdateBytes(u), DownBytes: 1,
		Phases: map[simtime.Phase]float64{simtime.PhaseFineTuning: 1, simtime.PhaseComm: 1}}
}

// TestReplyWireZeroAllocs: once both ends' buffers have grown, a full-model
// reply of the LLaMA stand-in is written and read without allocating, and
// the server's slot holds the update's every bit in windows of its arena.
func TestReplyWireZeroAllocs(t *testing.T) {
	m := moe.MustNew(moe.SimConfigLLaMATrain(), tensor.Named("reply-allocs"))
	slot := fullSlot(m)
	roundTrip, server := replyWire(t, slot, maxMessageBytes(m.Cfg))
	roundTrip()
	if n := testing.AllocsPerRun(5, roundTrip); n != 0 {
		t.Fatalf("a warm reply made %v allocations, want 0", n)
	}
	got := server.slot
	if got.Update.Participant != 1 || got.Update.Weight != 6 || len(got.Update.Experts) != len(slot.Update.Experts) ||
		got.Bytes != slot.Bytes || got.DownBytes != slot.DownBytes || !maps.Equal(got.Phases, slot.Phases) {
		t.Fatalf("decoded slot %+v", got)
	}
	inArena := make(map[*float64]bool, len(server.arena))
	for i := range server.arena {
		inArena[&server.arena[i]] = true
	}
	//fluxvet:unordered each expert is checked on its own
	for k, want := range slot.Update.Experts {
		params := got.Update.Experts[k]
		if !sameBits(params, want) {
			t.Fatalf("expert %v decoded differently", k)
		}
		if !inArena[&params[0]] {
			t.Fatalf("expert %v's parameters are not a window of the arena", k)
		}
	}
}

// TestBroadcastWireZeroAllocs: once both ends' buffers have grown, the
// server's broadcast of the LLaMA stand-in is built and written, and a
// client decodes it from the stream into its replica, without allocating;
// the replica then holds the global model's every bit.
func TestBroadcastWireZeroAllocs(t *testing.T) {
	global := moe.MustNew(moe.SimConfigLLaMATrain(), tensor.Named("broadcast-allocs"))
	replica := moe.MustNew(global.Cfg, tensor.Named("broadcast-replica"))
	srv := &Server{Env: &Env{Global: global}}
	var conn bytes.Buffer
	server, client := &peer{}, &peer{limit: maxMessageBytes(global.Cfg)}
	round := func() {
		parts, err := srv.broadcast(3, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.write(&conn, parts); err != nil {
			t.Fatal(err)
		}
		n, err := readLength(&conn, client.word[:], client.limit)
		if err != nil {
			t.Fatal(err)
		}
		if r, final, err := client.decodeBroadcast(&conn, n, 3, replica); err != nil || r != 3 || final {
			t.Fatalf("decodeBroadcast = %d, %v, %v", r, final, err)
		}
	}
	round()
	if n := testing.AllocsPerRun(5, round); n != 0 {
		t.Fatalf("a warm broadcast made %v allocations, want 0", n)
	}
	want, _ := global.EncodeBytes()
	if got, _ := replica.EncodeBytes(); !bytes.Equal(got, want) {
		t.Fatal("the replica does not hold the global model")
	}
}

// BenchmarkSlotResultWire is one full-model upload of the LLaMA stand-in
// (every expert, as fmd sends it) through both ends of a reply (replyWire),
// as the two ends of one connection do once their buffers have grown. CI
// publishes it into bench/BENCH_micro.json.
func BenchmarkSlotResultWire(b *testing.B) {
	m := moe.MustNew(moe.SimConfigLLaMATrain(), tensor.Named("bench-slot"))
	roundTrip, _ := replyWire(b, fullSlot(m), maxMessageBytes(m.Cfg))
	roundTrip()
	roundTrip() // the stand-in connection's buffer settles at its second write
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

//fluxvet:allow wallclock real-TCP transport tests run against real sockets, so watchdog timeouts and deadlines legitimately use real time

package fed

import (
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
	"repro/internal/tensor"
)

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
	srv := &Server{Global: global, Rounds: 2, Clients: 3}
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

func TestTCPTuningSubset(t *testing.T) {
	modelCfg := moe.Uniform("tcp-sub", 48, 12, 16, 2, 4, 2, 64)
	global := moe.MustNew(modelCfg, tensor.Named("tcp-sub"))
	frozen := global.Layers[0].Experts[3].W1.Clone()
	ds := data.Generate(data.GSM8K(), 48, 20, tensor.NewRNG(4))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := &Server{Global: global, Rounds: 1, Clients: 1}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ServeContext(context.Background(), ln) }()

	_, err = RunClientContext(context.Background(), ClientConfig{
		Participant: 0,
		Addr:        ln.Addr().String(),
		Shard:       ds.Samples,
		Batch:       4,
		LR:          0.5,
		TuneExperts: [][]int{{0, 1}, {0, 1}}, // expert 3 never uploaded
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	if !global.Layers[0].Experts[3].W1.Equal(frozen, 0) {
		t.Fatal("expert outside the tuning subset was aggregated")
	}
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

	srv := &Server{Global: global, Rounds: 0, Clients: 2, IOTimeout: 5 * time.Second}
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

func TestAcceptDropsSilentConnection(t *testing.T) {
	modelCfg := moe.Uniform("tcp-silent", 48, 12, 16, 1, 2, 1, 32)
	global := moe.MustNew(modelCfg, tensor.Named("tcp-silent"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	srv := &Server{Global: global, Clients: 1, IOTimeout: 200 * time.Millisecond}
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
	srv := &Server{Global: global, Rounds: 3, Clients: 2}
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

// TestRunRoundRejectsMalformedUpdates sends RunRound one well-formed update
// (peer 0, parameters moved off the global's so any aggregation would show)
// and one malformed one (peer 1) per case. Every case must fail the round
// with an error naming peer 1, without panicking, and leave Global bit for
// bit as it was.
func TestRunRoundRejectsMalformedUpdates(t *testing.T) {
	key := ExpertKey{Layer: 1, Expert: 2}
	cases := []struct {
		name    string
		corrupt func(u *UpdateMsg)
	}{
		{"participant is not the peer", func(u *UpdateMsg) { u.Participant = 0 }},
		{"layer out of range", func(u *UpdateMsg) { u.Experts[ExpertKey{Layer: 9, Expert: 0}] = u.Experts[key] }},
		{"expert out of range", func(u *UpdateMsg) { u.Experts[ExpertKey{Layer: 0, Expert: -1}] = u.Experts[key] }},
		{"short parameter slice", func(u *UpdateMsg) { u.Experts[key] = u.Experts[key][:3] }},
		{"length differs from the other peer's", func(u *UpdateMsg) { u.Experts[key] = append(u.Experts[key], 1, 2, 3) }},
		{"NaN parameter", func(u *UpdateMsg) { u.Experts[key][5] = math.NaN() }},
		{"infinite parameter", func(u *UpdateMsg) { u.Experts[key][0] = math.Inf(-1) }},
		{"NaN weight", func(u *UpdateMsg) { u.Weight = math.NaN() }},
		{"negative weight", func(u *UpdateMsg) { u.Weight = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			global := moe.MustNew(moe.Uniform("tcp-bad", 48, 12, 16, 2, 4, 2, 32), tensor.Named("tcp-bad"))
			snapshot := global.Clone()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			srv := &Server{Global: global, Clients: 2, IOTimeout: 5 * time.Second}
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
			_, err = srv.RunRound(context.Background(), 0)
			wg.Wait()
			if err == nil || !strings.Contains(err.Error(), "update from 1 rejected") {
				t.Fatalf("RunRound error = %v, want peer 1's update rejected", err)
			}
			for l, layer := range snapshot.Layers {
				for e, want := range layer.Experts {
					got := global.Layers[l].Experts[e].FlattenTo(nil)
					for i, w := range want.FlattenTo(nil) {
						if math.Float64bits(got[i]) != math.Float64bits(w) {
							t.Fatalf("layer %d expert %d moved although the round failed", l, e)
						}
					}
				}
			}
		})
	}
}

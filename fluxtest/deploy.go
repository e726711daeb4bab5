//fluxvet:allow wallclock deployment failure-injection harness: socket deadlines and liveness bounds are real time by design

package fluxtest

import (
	"context"
	"encoding/gob"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	flux "repro"
	"repro/internal/fed"
	"repro/internal/obs"
)

// TestDeployment exercises the robustness contracts of the public
// Serve/Join deployment protocol with misbehaving participants injected at
// the wire level:
//
//   - a connection claiming an already-taken participant id is rejected
//     without disturbing the fleet,
//   - a connection that never completes its Hello is dropped without
//     stalling fleet formation,
//   - a participant id far outside any fleet table, or negative, is served
//     like any other (the id orders aggregation and indexes nothing),
//   - a participant that disconnects mid-round fails the deployment
//     cleanly (Serve returns an error instead of hanging),
//   - a participant that stalls past the per-message deadline does the
//     same,
//   - a participant whose update names an expert the model does not have
//     and carries a NaN fails the deployment with an error naming it,
//     instead of panicking the server or poisoning the model, and the
//     rejection is counted in the metrics registry,
//   - a participant that announces a message far beyond the model's size
//     fails the deployment with an error naming it, before the server
//     allocates the message.
//
// The battery is self-contained: call it from a single test function.
func TestDeployment(t *testing.T) {
	t.Helper()

	t.Run("DuplicateParticipantRejected", func(t *testing.T) {
		ln := listenLoopback(t)
		errc := serveAsync(t, flux.ServerConfig{
			Listener: ln, Clients: 2, Rounds: 1,
			PretrainSteps: 60, IOTimeout: 10 * time.Second,
		})
		good0 := dialRaw(t, ln.Addr().String(), 0)
		dup := dialRaw(t, ln.Addr().String(), 0)
		good1 := dialRaw(t, ln.Addr().String(), 1)

		done0 := good0.participateAsync()
		done1 := good1.participateAsync()

		// The duplicate must be cut off: its connection is closed at the
		// handshake, so it never sees a broadcast.
		dup.conn.SetReadDeadline(time.Now().Add(deployBound))
		var msg fed.RoundMsg
		if err := dup.dec.Decode(&msg); err == nil {
			t.Error("duplicate participant received a round broadcast; want its connection closed")
		}

		if err := waitErr(t, errc, "Serve"); err != nil {
			t.Fatalf("Serve with a rejected duplicate failed: %v", err)
		}
		if err := waitErr(t, done0, "participant 0"); err != nil {
			t.Errorf("legitimate participant 0 failed: %v", err)
		}
		if err := waitErr(t, done1, "participant 1"); err != nil {
			t.Errorf("legitimate participant 1 failed: %v", err)
		}
	})

	t.Run("StalledHelloDropped", func(t *testing.T) {
		ln := listenLoopback(t)
		errc := serveAsync(t, flux.ServerConfig{
			Listener: ln, Clients: 2, Rounds: 1,
			PretrainSteps: 60, IOTimeout: 1 * time.Second,
		})
		// Connects but never says Hello; Accept must drop it after the
		// hello deadline and still assemble the fleet from the two real
		// participants queued behind it.
		silent, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer silent.Close()

		done0 := dialRaw(t, ln.Addr().String(), 0).participateAsync()
		done1 := dialRaw(t, ln.Addr().String(), 1).participateAsync()

		if err := waitErr(t, errc, "Serve"); err != nil {
			t.Fatalf("Serve with a silent connection failed: %v", err)
		}
		if err := waitErr(t, done0, "participant 0"); err != nil {
			t.Errorf("participant 0 failed: %v", err)
		}
		if err := waitErr(t, done1, "participant 1"); err != nil {
			t.Errorf("participant 1 failed: %v", err)
		}
	})

	t.Run("ArbitraryParticipantIDServed", func(t *testing.T) {
		// A participant id is whatever Hello says; the server keys nothing
		// but ordering on it, so ids far outside any fleet table (and
		// negative ones) are served like any other.
		ln := listenLoopback(t)
		errc := serveAsync(t, flux.ServerConfig{
			Listener: ln, Clients: 2, Rounds: 2,
			PretrainSteps: 60, IOTimeout: 10 * time.Second,
		})
		doneBig := dialRaw(t, ln.Addr().String(), 1<<30).participateAsync()
		doneNeg := dialRaw(t, ln.Addr().String(), -7).participateAsync()
		if err := waitErr(t, errc, "Serve"); err != nil {
			t.Fatalf("Serve with out-of-table participant ids failed: %v", err)
		}
		if err := waitErr(t, doneBig, "participant 1<<30"); err != nil {
			t.Errorf("participant 1<<30 failed: %v", err)
		}
		if err := waitErr(t, doneNeg, "participant -7"); err != nil {
			t.Errorf("participant -7 failed: %v", err)
		}
	})

	t.Run("MidRoundDisconnectFailsServe", func(t *testing.T) {
		ln := listenLoopback(t)
		errc := serveAsync(t, flux.ServerConfig{
			Listener: ln, Clients: 2, Rounds: 3,
			PretrainSteps: 60, IOTimeout: 10 * time.Second,
		})
		quitter := dialRaw(t, ln.Addr().String(), 0)
		survivor := dialRaw(t, ln.Addr().String(), 1)
		done1 := survivor.participateAsync() // fails when the server tears down; that's fine

		// Receive the first broadcast, then vanish instead of replying.
		var msg fed.RoundMsg
		quitter.conn.SetReadDeadline(time.Now().Add(deployBound))
		if err := quitter.dec.Decode(&msg); err != nil {
			t.Fatalf("quitter never saw round 0: %v", err)
		}
		quitter.conn.Close()

		if err := waitErr(t, errc, "Serve"); err == nil {
			t.Fatal("Serve completed despite a participant disconnecting mid-round; want a clean error")
		}
		<-done1 // survivor must be released, not left hanging
	})

	t.Run("MidRoundStallFailsServe", func(t *testing.T) {
		ln := listenLoopback(t)
		errc := serveAsync(t, flux.ServerConfig{
			Listener: ln, Clients: 2, Rounds: 3,
			PretrainSteps: 60, IOTimeout: 1 * time.Second,
		})
		staller := dialRaw(t, ln.Addr().String(), 0)
		survivor := dialRaw(t, ln.Addr().String(), 1)
		done1 := survivor.participateAsync()

		// Receive the broadcast, then hold the connection open without ever
		// uploading; the per-message deadline must fail the round.
		var msg fed.RoundMsg
		staller.conn.SetReadDeadline(time.Now().Add(deployBound))
		if err := staller.dec.Decode(&msg); err != nil {
			t.Fatalf("staller never saw round 0: %v", err)
		}
		defer staller.conn.Close()

		if err := waitErr(t, errc, "Serve"); err == nil {
			t.Fatal("Serve completed despite a stalled participant; want a deadline error")
		}
		<-done1
	})

	t.Run("HostileUpdateFailsServe", func(t *testing.T) {
		ln := listenLoopback(t)
		metrics := flux.NewMetricsRegistry()
		errc := serveAsync(t, flux.ServerConfig{
			Listener: ln, Clients: 2, Rounds: 3,
			PretrainSteps: 60, IOTimeout: 10 * time.Second, Metrics: metrics,
		})
		hostile := dialRaw(t, ln.Addr().String(), 0)
		survivor := dialRaw(t, ln.Addr().String(), 1)
		done1 := survivor.participateAsync()

		var msg fed.RoundMsg
		hostile.conn.SetReadDeadline(time.Now().Add(deployBound))
		if err := hostile.dec.Decode(&msg); err != nil {
			t.Fatalf("hostile peer never saw round 0: %v", err)
		}
		bad := fed.SlotResult{Update: fed.UpdateMsg{Participant: 0, Weight: 1, Experts: map[fed.ExpertKey][]float64{
			{Layer: 1 << 20, Expert: -1}: {math.NaN()},
		}}}
		if err := hostile.enc.Encode(bad); err != nil {
			t.Fatalf("hostile upload: %v", err)
		}

		err := waitErr(t, errc, "Serve")
		if err == nil || !strings.Contains(err.Error(), "update from 0 rejected") {
			t.Fatalf("Serve = %v, want an error rejecting participant 0's update", err)
		}
		if n := metrics.Counter(obs.MetricRejectedUpdates, "").Value(); n != 1 {
			t.Errorf("%s = %v after one rejected update, want 1", obs.MetricRejectedUpdates, n)
		}
		waitErr(t, done1, "participant 1") // released by the teardown, not left hanging
	})

	t.Run("OversizeMessageFailsServe", func(t *testing.T) {
		ln := listenLoopback(t)
		errc := serveAsync(t, flux.ServerConfig{
			Listener: ln, Clients: 2, Rounds: 3,
			PretrainSteps: 60, IOTimeout: 10 * time.Second,
		})
		hostile := dialRaw(t, ln.Addr().String(), 0)
		survivor := dialRaw(t, ln.Addr().String(), 1)
		done1 := survivor.participateAsync()

		var msg fed.RoundMsg
		hostile.conn.SetReadDeadline(time.Now().Add(deployBound))
		if err := hostile.dec.Decode(&msg); err != nil {
			t.Fatalf("hostile peer never saw round 0: %v", err)
		}
		// A gob length prefix announcing a 512 MiB message (0xFC: four
		// big-endian length bytes follow), and nothing after it: the server
		// must refuse at the prefix rather than allocate and wait.
		if _, err := hostile.conn.Write([]byte{0xFC, 0x20, 0, 0, 0}); err != nil {
			t.Fatalf("hostile upload: %v", err)
		}

		err := waitErr(t, errc, "Serve")
		if err == nil || !strings.Contains(err.Error(), "update from 0") || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("Serve = %v, want an error naming participant 0's oversize message", err)
		}
		waitErr(t, done1, "participant 1")
	})
}

// deployBound is the per-step watchdog of the deployment battery: every
// Serve outcome and client release must land within it, or the battery
// declares the protocol hung.
const deployBound = 60 * time.Second

func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return ln
}

func serveAsync(t *testing.T, cfg flux.ServerConfig) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- flux.Serve(context.Background(), cfg) }()
	return errc
}

// waitErr receives one outcome under the battery watchdog.
func waitErr(t *testing.T, c <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-c:
		return err
	case <-time.After(deployBound):
		t.Fatalf("%s hung: no outcome within %v", what, deployBound)
		return nil
	}
}

// rawPeer speaks the TCP wire protocol directly so the battery can
// misbehave in ways flux.Join never would.
type rawPeer struct {
	id   int
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// dialRaw connects and completes the Hello handshake. Connections are
// dialed sequentially, so the server's accept loop sees them in call order.
func dialRaw(t *testing.T, addr string, id int) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	p := &rawPeer{id: id, conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
	if err := p.enc.Encode(fed.Hello{Participant: id}); err != nil {
		t.Fatalf("hello %d: %v", id, err)
	}
	return p
}

// participateAsync plays a minimal well-behaved participant: for every
// broadcast it replies with a slot holding an empty update (no experts
// tuned, no traffic, no phases), until the final model or a connection error
// arrives.
func (p *rawPeer) participateAsync() <-chan error {
	done := make(chan error, 1)
	go func() {
		for {
			p.conn.SetReadDeadline(time.Now().Add(deployBound))
			var msg fed.RoundMsg
			if err := p.dec.Decode(&msg); err != nil {
				done <- err
				return
			}
			if msg.Final {
				done <- nil
				return
			}
			p.conn.SetWriteDeadline(time.Now().Add(deployBound))
			if err := p.enc.Encode(fed.SlotResult{Update: fed.UpdateMsg{Participant: p.id, Weight: 1}}); err != nil {
				done <- err
				return
			}
		}
	}()
	return done
}

//fluxvet:allow wallclock deployment failure-injection harness: socket deadlines and liveness bounds are real time by design

package fluxtest

import (
	"bytes"
	"context"
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"strings"
	"testing"
	"time"

	flux "repro"
	"repro/internal/fed"
	"repro/internal/moe"
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
//     allocates the message,
//   - a participant that sends a well-framed reply of random bytes, or a
//     reply that ends mid-expert before it hangs up, fails the deployment
//     with an error naming it,
//   - a connection whose Hello lacks the wire tag and protocol version — a
//     client of the gob protocol that came before frames, or of another
//     version — is dropped at the handshake and does not count.
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
		if err := dup.recv(&msg); err == nil {
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
		if err := quitter.recv(&msg); err != nil {
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
		if err := staller.recv(&msg); err != nil {
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

		hostile.awaitRound0(t)
		bad := fed.SlotResult{Update: fed.UpdateMsg{Participant: 0, Weight: 1, Experts: map[fed.ExpertKey][]float64{
			{Layer: 1 << 20, Expert: -1}: {math.NaN()},
		}}}
		if err := hostile.send(bad); err != nil {
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

		hostile.awaitRound0(t)
		// A frame length announcing a 512 MiB message, and nothing after
		// it: the server must refuse at the prefix rather than allocate and
		// wait.
		if _, err := hostile.conn.Write(binary.LittleEndian.AppendUint64(nil, 512<<20)); err != nil {
			t.Fatalf("hostile upload: %v", err)
		}

		err := waitErr(t, errc, "Serve")
		if err == nil || !strings.Contains(err.Error(), "update from 0") || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("Serve = %v, want an error naming participant 0's oversize message", err)
		}
		waitErr(t, done1, "participant 1")
	})

	t.Run("GarbageMidRoundFailsServe", func(t *testing.T) {
		ln := listenLoopback(t)
		errc := serveAsync(t, flux.ServerConfig{
			Listener: ln, Clients: 2, Rounds: 3,
			PretrainSteps: 60, IOTimeout: 10 * time.Second,
		})
		hostile := dialRaw(t, ln.Addr().String(), 0)
		survivor := dialRaw(t, ln.Addr().String(), 1)
		done1 := survivor.participateAsync()

		hostile.awaitRound0(t)
		// A valid length prefix, then that many random bytes.
		garbage := make([]byte, 4096)
		rand.NewChaCha8([32]byte{1}).Read(garbage)
		if err := hostile.send(rawBody(garbage)); err != nil {
			t.Fatalf("hostile upload: %v", err)
		}

		err := waitErr(t, errc, "Serve")
		if err == nil || !strings.Contains(err.Error(), "update from 0") {
			t.Fatalf("Serve = %v, want an error naming participant 0's garbage reply", err)
		}
		waitErr(t, done1, "participant 1")
	})

	t.Run("TruncatedUpdateFailsServe", func(t *testing.T) {
		ln := listenLoopback(t)
		errc := serveAsync(t, flux.ServerConfig{
			Listener: ln, Clients: 2, Rounds: 3,
			PretrainSteps: 60, IOTimeout: 10 * time.Second,
		})
		hostile := dialRaw(t, ln.Addr().String(), 0)
		survivor := dialRaw(t, ln.Addr().String(), 1)
		done1 := survivor.participateAsync()

		// A full-model reply whose frame announces every byte, cut in the
		// middle, where an expert's parameters are (they are nearly all of
		// it); then the peer hangs up.
		model, err := moe.DecodeBytes(hostile.awaitRound0(t).Model)
		if err != nil {
			t.Fatalf("round 0 broadcast: %v", err)
		}
		u := fed.ExtractUpdate(model, 0, 1, fed.IdentityTuning(model.Cfg))
		var buf bytes.Buffer
		if err := writeMsg(&buf, fed.SlotResult{Update: u, Bytes: fed.UpdateBytes(u)}); err != nil {
			t.Fatal(err)
		}
		if _, err := hostile.conn.Write(buf.Bytes()[:buf.Len()/2]); err != nil {
			t.Fatalf("hostile upload: %v", err)
		}
		hostile.conn.Close()

		err = waitErr(t, errc, "Serve")
		if err == nil || !strings.Contains(err.Error(), "update from 0") {
			t.Fatalf("Serve = %v, want an error naming participant 0's truncated reply", err)
		}
		waitErr(t, done1, "participant 1")
	})

	t.Run("SlowHelloDropped", func(t *testing.T) {
		ln := listenLoopback(t)
		errc := serveAsync(t, flux.ServerConfig{
			Listener: ln, Clients: 2, Rounds: 1,
			PretrainSteps: 60, IOTimeout: 1 * time.Second,
		})
		// A Hello claiming id 0 trickled one byte every 100 ms: each gap is
		// well inside the 1 s Hello deadline, the whole Hello far beyond it.
		// The deadline bounds the whole Hello, not each read, so the
		// connection is dropped and the real participant 0 is not turned
		// away as a duplicate. The trickle stops at its first failed write.
		hello, _ := fed.Hello{Participant: 0}.MarshalBinary()
		var frame bytes.Buffer
		fed.WriteFrame(&frame, hello)
		trickled := make(chan struct{})
		slowConn := dialForeign(t, ln.Addr().String(), func(conn net.Conn) error {
			go func() {
				defer close(trickled)
				for _, b := range frame.Bytes() {
					if _, err := conn.Write([]byte{b}); err != nil {
						return
					}
					time.Sleep(100 * time.Millisecond)
				}
			}()
			return nil
		})
		done0 := dialRaw(t, ln.Addr().String(), 0).participateAsync()
		done1 := dialRaw(t, ln.Addr().String(), 1).participateAsync()

		if err := waitErr(t, errc, "Serve"); err != nil {
			t.Fatalf("Serve with a slow Hello failed: %v", err)
		}
		<-trickled
		slowConn.SetReadDeadline(time.Now().Add(deployBound))
		if n, err := slowConn.Read(make([]byte, 1)); err == nil {
			t.Errorf("the slow connection read %d bytes; want it closed at the handshake", n)
		}
		if err := waitErr(t, done0, "participant 0"); err != nil {
			t.Errorf("participant 0 failed: %v", err)
		}
		if err := waitErr(t, done1, "participant 1"); err != nil {
			t.Errorf("participant 1 failed: %v", err)
		}
	})

	t.Run("ForeignHelloDropped", func(t *testing.T) {
		ln := listenLoopback(t)
		errc := serveAsync(t, flux.ServerConfig{
			Listener: ln, Clients: 2, Rounds: 1,
			PretrainSteps: 60, IOTimeout: 1 * time.Second,
		})
		// A client of the gob protocol, and a framed Hello of another
		// protocol version, both claiming id 0: were either counted, the
		// real participant 0 would be turned away as a duplicate. Their
		// write errors are dropped: the server may hang up on a foreign
		// Hello before all of it is written.
		gobConn := dialForeign(t, ln.Addr().String(), func(conn net.Conn) error {
			gob.NewEncoder(conn).Encode(fed.Hello{Participant: 0})
			return nil
		})
		versionConn := dialForeign(t, ln.Addr().String(), func(conn net.Conn) error {
			hello, _ := fed.Hello{Participant: 0}.MarshalBinary()
			hello[len(hello)-9]++ // the version byte precedes the 8-byte id
			fed.WriteFrame(conn, hello)
			return nil
		})
		done0 := dialRaw(t, ln.Addr().String(), 0).participateAsync()
		done1 := dialRaw(t, ln.Addr().String(), 1).participateAsync()

		if err := waitErr(t, errc, "Serve"); err != nil {
			t.Fatalf("Serve with foreign Hellos failed: %v", err)
		}
		for i, conn := range []net.Conn{gobConn, versionConn} {
			conn.SetReadDeadline(time.Now().Add(deployBound))
			if n, err := conn.Read(make([]byte, 1)); err == nil {
				t.Errorf("foreign connection %d read %d bytes; want it closed at the handshake", i, n)
			}
		}
		if err := waitErr(t, done0, "participant 0"); err != nil {
			t.Errorf("participant 0 failed: %v", err)
		}
		if err := waitErr(t, done1, "participant 1"); err != nil {
			t.Errorf("participant 1 failed: %v", err)
		}
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
	buf  []byte
}

// maxFrame bounds the frames a rawPeer reads: the battery trusts the server
// it tests.
const maxFrame = 1 << 30

// recv reads one broadcast into msg.
func (p *rawPeer) recv(msg *fed.RoundMsg) error {
	var err error
	if p.buf, err = fed.ReadFrame(p.conn, p.buf, maxFrame); err != nil {
		return err
	}
	return msg.UnmarshalBinary(p.buf)
}

// send writes one frame holding v's body.
func (p *rawPeer) send(v encoding.BinaryMarshaler) error { return writeMsg(p.conn, v) }

func writeMsg(w io.Writer, v encoding.BinaryMarshaler) error {
	b, err := v.MarshalBinary()
	if err != nil {
		return err
	}
	return fed.WriteFrame(w, b)
}

// awaitRound0 receives the first broadcast, under the battery watchdog.
func (p *rawPeer) awaitRound0(t *testing.T) fed.RoundMsg {
	t.Helper()
	var msg fed.RoundMsg
	p.conn.SetReadDeadline(time.Now().Add(deployBound))
	if err := p.recv(&msg); err != nil {
		t.Fatalf("peer %d never saw round 0: %v", p.id, err)
	}
	return msg
}

// rawBody is a frame body given as bytes.
type rawBody []byte

func (b rawBody) MarshalBinary() ([]byte, error) { return b, nil }

// dialRaw connects and completes the Hello handshake. Connections are
// dialed sequentially, so the server's accept loop sees them in call order.
func dialRaw(t *testing.T, addr string, id int) *rawPeer {
	t.Helper()
	conn := dialForeign(t, addr, func(conn net.Conn) error { return writeMsg(conn, fed.Hello{Participant: id}) })
	return &rawPeer{id: id, conn: conn}
}

// dialForeign connects and says hello with the given function.
func dialForeign(t *testing.T, addr string, hello func(net.Conn) error) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := hello(conn); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return conn
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
			if err := p.recv(&msg); err != nil {
				done <- err
				return
			}
			if msg.Final {
				done <- nil
				return
			}
			p.conn.SetWriteDeadline(time.Now().Add(deployBound))
			if err := p.send(fed.SlotResult{Update: fed.UpdateMsg{Participant: p.id, Weight: 1}}); err != nil {
				done <- err
				return
			}
		}
	}()
	return done
}

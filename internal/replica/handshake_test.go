package replica_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"cphash/internal/replica"
)

// TestStalledHandshakeTimesOut proves HandshakeTimeout releases a serve
// goroutine whose peer connects and then goes silent: the source must
// hang up within the configured bound, and the stalled dialer must
// never appear in the peer set.
func TestStalledHandshakeTimesOut(t *testing.T) {
	n := startNode(t, &replica.SourceConfig{HandshakeTimeout: 150 * time.Millisecond})

	conn, err := net.Dial("tcp", n.src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Send nothing: the hello never arrives. The source's handshake
	// deadline must cut the connection.
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if nr, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("source sent %d bytes to an empty handshake", nr)
	}
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("stalled handshake held the connection %v (timeout was 150ms)", elapsed)
	}
	if elapsed < 100*time.Millisecond {
		t.Fatalf("connection cut after %v, before the handshake deadline", elapsed)
	}
	if peers := n.src.Status(); len(peers) != 0 {
		t.Fatalf("stalled dialer reached the peer set: %+v", peers)
	}

	// The listener must still serve real handshakes afterwards.
	f := n.follow(n.src.Addr(), nil, 10*time.Millisecond)
	defer f.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := n.src.Status(); len(st) == 1 && st[0].Synced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never synced after the stalled handshake: %+v", n.src.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandshakeTimeoutConfigurable pins that the knob actually moves:
// a generous timeout keeps a slow-but-legitimate hello alive past the
// old hardcoded bound's order of magnitude (scaled down for test time).
func TestHandshakeTimeoutConfigurable(t *testing.T) {
	n := startNode(t, &replica.SourceConfig{HandshakeTimeout: 2 * time.Second})

	conn, err := net.Dial("tcp", n.src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Stall longer than the other test's 150ms, then complete a real
	// handshake via a Follower on a fresh connection — this connection
	// just proves the 2s window tolerated the stall.
	time.Sleep(400 * time.Millisecond)
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("unexpected reply on a half-open handshake")
	} else if nerr, ok := err.(net.Error); !ok || !nerr.Timeout() {
		t.Fatalf("source hung up inside a 2s handshake window after 400ms: %v", err)
	}
}

// TestOlderProtocolHelloRefused pins the version check: a CPREPL03
// follower expects compressed bodies without per-record checksums, so
// the source must hang up on its hello without a reply and never list
// it as a peer.
func TestOlderProtocolHelloRefused(t *testing.T) {
	n := startNode(t, &replica.SourceConfig{})

	conn, err := net.Dial("tcp", n.src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := append([]byte("CPREPL03"), 1, 'f')
	hello = append(hello, bytes.Repeat([]byte{0xff}, 32)...) // every slot
	hello = append(hello, make([]byte, 16)...)               // no resume
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if nr, err := conn.Read(make([]byte, 64)); err == nil {
		t.Fatalf("source replied %d bytes to a CPREPL03 hello", nr)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("source neither replied nor hung up on a CPREPL03 hello")
	}
	if peers := n.src.Status(); len(peers) != 0 {
		t.Fatalf("CPREPL03 follower reached the peer set: %+v", peers)
	}
}

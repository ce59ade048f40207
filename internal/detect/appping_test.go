package detect

import (
	"net"
	"testing"
	"time"

	"cphash/internal/core"
	"cphash/internal/kvserver"
)

// TestPingOutcomes pins the three-way classification the probes build
// on: a serving instance answers (OK), a dead port refuses (NoDial),
// and a listener that accepts but never serves hangs the request
// (NoReply — the accept-then-hang signature a bare dial cannot see).
func TestPingOutcomes(t *testing.T) {
	table := core.MustNew(core.Config{Partitions: 2, CapacityBytes: 4 << 20, MaxClients: 1, Seed: 1})
	srv, err := kvserver.Serve(kvserver.Config{
		Addr: "127.0.0.1:0", Workers: 1, NewBackend: kvserver.NewCPHashBackend(table),
	})
	if err != nil {
		table.Close()
		t.Fatal(err)
	}
	defer func() { srv.Close(); table.Close() }()

	if got := Ping(nil, srv.Addr(), time.Second); got != PingOK {
		t.Fatalf("ping of a serving instance = %v, want PingOK", got)
	}

	// A listener that accepts and then ignores the connection.
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			c, err := hung.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { <-done; c.Close() }(c)
		}
	}()
	if got := Ping(nil, hung.Addr().String(), 100*time.Millisecond); got != PingNoReply {
		t.Fatalf("ping of an accept-then-hang listener = %v, want PingNoReply", got)
	}

	// A closed port: grab an address, release it, ping it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	if got := Ping(nil, dead, 100*time.Millisecond); got != PingNoDial {
		t.Fatalf("ping of a closed port = %v, want PingNoDial", got)
	}
}

// The application-level ping. A bare TCP dial has a blind spot: a
// process whose accept loop is alive but whose serving path is wedged
// (deadlocked worker, hung disk, a chaos accept-then-hang rule) passes
// every dial probe while failing every request. The ping closes it by
// speaking the native protocol — one LOOKUP round trip under a single
// deadline — so "accepting but not serving" becomes a detectable state
// of its own.

package detect

import (
	"bufio"
	"net"
	"time"

	"cphash/internal/protocol"
)

// DialFunc matches net.DialTimeout, so callers can route the ping
// through an injected dialer (the chaos Director, a proxy).
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// PingResult classifies one application-level ping. The three-way split
// matters to probes that keep a secondary witness: a refused dial may be
// a one-way partition (ask the witness), but a connection that accepts
// and then never answers is definitive — the member is not serving.
type PingResult int

const (
	// PingOK: the request was answered within the deadline (a miss on
	// the probe key still counts — the serving path ran).
	PingOK PingResult = iota
	// PingNoDial: the TCP dial itself failed.
	PingNoDial
	// PingNoReply: the dial succeeded but the request was not answered
	// before the deadline — the accept-then-hang signature.
	PingNoReply
)

// pingKey is the fixed key the ping looks up. Key 0 is an ordinary
// read-only lookup: present or absent, the reply proves the reader,
// worker, and response path are all moving.
const pingKey uint64 = 0

// Ping dials target and runs one protocol LOOKUP under timeout (shared
// between the dial and the round trip). It allocates a few small
// buffers per call — fine at probe cadence, not meant for hot paths.
func Ping(dial DialFunc, target string, timeout time.Duration) PingResult {
	if dial == nil {
		dial = net.DialTimeout
	}
	deadline := time.Now().Add(timeout)
	conn, err := dial("tcp", target, timeout)
	if err != nil {
		return PingNoDial
	}
	defer conn.Close()
	if err := conn.SetDeadline(deadline); err != nil {
		return PingNoReply
	}
	bw := bufio.NewWriterSize(conn, 64)
	if err := protocol.WriteRequest(bw, protocol.Request{Op: protocol.OpLookup, Key: pingKey}); err != nil {
		return PingNoReply
	}
	if err := bw.Flush(); err != nil {
		return PingNoReply
	}
	br := bufio.NewReaderSize(conn, 512)
	if _, _, err := protocol.ReadLookupResponse(br, nil); err != nil {
		return PingNoReply
	}
	return PingOK
}

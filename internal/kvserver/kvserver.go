// Package kvserver implements CPSERVER and LOCKSERVER, the memcached-style
// TCP key/value cache servers of Section 4 of the CPHash paper, speaking
// protocol versions 1–4: LOOKUP/INSERT plus DELETE, TTL inserts,
// variable-length string keys (GET_STR/SET_STR/DEL_STR), bulk SCAN/PURGE,
// and the version-4 read-modify-write set (CAS/ADD/REPLACE/APPEND/PREPEND/
// INCR/DECR/TOUCH/GETS/INSERT_VER).
//
// Architecture (Figure 4): an acceptor assigns each new connection to the
// client thread (worker) with the fewest active connections. Each
// connection's goroutine reads for itself: it decodes every request its
// read buffer holds into one batch and runs that batch on its worker's
// hash-table backend in one go — which is what lets CPHASH pipeline the
// whole batch (lookups, inserts AND deletes) through its message rings —
// then writes the LOOKUP/GET_STR and DELETE/DEL_STR responses in request
// order and flushes. INSERT/INSERT_TTL/SET_STR are silent, per the
// protocol. A worker is a lock and a queue, not a goroutine: a connection
// that finds it busy queues its batch, and the connection holding it runs
// every queued batch with its own as one backend batch (flat combining),
// so connections sharing a worker still share its batches.
//
// String keys are routed onto the fixed 60-bit key space with
// protocol.HashStringKey and stored with the key embedded in the value
// (protocol.AppendStringEntry), so a 60-bit hash collision reads as a miss
// — the paper's Section 8.2 extension, server-side. A DEL_STR whose hash
// collides with a different stored key removes that entry; with 60-bit
// hashes this is vanishingly rare, and for a cache it only costs a refill.
//
// The only difference between CPSERVER and LOCKSERVER is the Backend
// (NewCPHashBackend vs NewLockHashBackend), mirroring the paper's shared
// implementation.
//
// With Config.TextAddr the server also listens for the memcached text
// protocol. A text connection differs from a native one only in its codec
// (internal/mctext): it tokenises commands straight into protocol.Requests,
// and its replies are rendered as text; placement, batching, backend,
// group commit, metrics and shutdown are shared, so a client that
// pipelines text commands gets them executed — and their replies flushed
// — a batch at a time.
package kvserver

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cphash/internal/cluster"
	"cphash/internal/core"
	"cphash/internal/lockhash"
	"cphash/internal/mctext"
	"cphash/internal/obs"
	"cphash/internal/partition"
	"cphash/internal/persist"
	"cphash/internal/protocol"
	"cphash/internal/replica"
)

// Result describes the outcome of one response-bearing request inside a
// batch: for a LOOKUP/GET_STR/GETS hit the value occupies buf[Start:End]
// of the batch buffer; for a DELETE/DEL_STR only Found is meaningful (the
// key existed and was removed); a read-modify-write fills Status, Ver and
// Num (the wire triple); a GETS hit also carries the entry version in Ver.
type Result struct {
	Start, End int32
	Found      bool
	Status     uint8
	Ver        uint64
	Num        uint64
}

// Backend executes one batch of requests against a hash table.
// Implementations must fill results[i] for every LOOKUP/GET_STR and
// DELETE/DEL_STR request i and may append value bytes to buf, returning
// the grown buffer. A Backend instance belongs to one worker: its calls
// never overlap, though successive calls may come from the goroutines of
// different connections, ordered by the worker's lock.
//
// No-retention contract: everything a Backend is handed is on loan for
// the duration of the call. reqs, each request's StrKey/Value bytes (they
// alias the decode buffers of the connections in the batch, which decode
// their next batch into them as soon as this one's responses have been
// buffered), results, and buf are all reused by the worker; ProcessBatch
// must not retain any of them — not in the table, not in goroutines it
// spawns — past its return. Anything a backend stores must be copied
// first (CPHASH's owning server copies each value before it replies, and
// the backend waits for every reply; LOCKHASH copies under the partition
// lock). The buffer-aliasing regression tests in alias_test.go enforce
// this by scribbling over the decode buffer after the batch settles.
//
// Durability contract: every change record of a batch has reached the
// table's durability sink when ProcessBatch returns (CPHASH's server
// publishes it before the reply; LOCKHASH under the partition lock), so
// group commit's barrier right after it covers the whole batch.
type Backend interface {
	ProcessBatch(reqs []protocol.Request, results []Result, buf []byte) []byte
	Close()
}

// SlotScanner is the optional Backend extension behind the protocol v3
// SCAN/PURGE ops, the primitives online slot migration is built on. Both
// methods are bounded per call and cursor-resumable (next ==
// protocol.ScanDone once iteration completes); both may be called by any
// worker concurrently with other workers' batches. A backend that does
// not implement it answers SCAN/PURGE with an immediate empty ScanDone, so
// migrating away from it silently moves nothing — callers can detect that
// by the zero entry count.
type SlotScanner interface {
	// ScanSlots appends up to max live entries whose keys fall in the
	// selected continuum slots to dst, resuming at cursor. Their values
	// may alias a slab the backend reuses, so they are valid until its
	// next ScanSlots call.
	ScanSlots(slots *protocol.SlotSet, cursor uint64, max int, dst []protocol.ScanEntry) (out []protocol.ScanEntry, next uint64, err error)
	// PurgeSlots removes live entries in the selected slots, resuming at
	// cursor, returning how many this call removed.
	PurgeSlots(slots *protocol.SlotSet, cursor uint64) (removed int, next uint64, err error)
}

// Config parameterizes Serve.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// TextAddr, when non-empty, is a second listen address whose
	// connections speak the memcached text protocol (see internal/mctext
	// for the command set and translation rules).
	TextAddr string
	// Workers is the number of client threads (default 1).
	Workers int
	// MaxBatch bounds the requests a connection decodes per read, and a
	// backend batch (default 512, within the paper's effective
	// 512–8,192 pipeline band).
	MaxBatch int
	// NewBackend builds the per-worker backend.
	NewBackend func(worker int) (Backend, error)
	// Persist, when non-nil, is the durability pipeline behind the
	// backend's table. The server owns its lifecycle from here on: under
	// SyncAlways every batch group-commits (the WAL is fsynced before
	// any of the batch's responses reach the wire), and Close waits for
	// every batch in flight and then flushes and closes the pipeline, so a
	// graceful shutdown loses nothing. The pipeline must already be
	// Started.
	Persist *persist.Pipeline
	// Replication, when non-nil, is the replication source streaming this
	// server's Persist pipeline to its followers (internal/replica). The
	// server owns its shutdown ordering: Close stops serving, fences the
	// backends, barriers the pipeline so the final mutations reach the
	// tail fanout, closes the source, and only then closes the pipeline.
	// Callers that want a clean handoff (followers fully acknowledged)
	// should wait on the source's watermark before calling Close.
	Replication *replica.Source
	// Metrics receives the server-side latency and batch-size histograms
	// (nil = the server allocates a private set; metrics are always on —
	// the per-batch cost is two clock reads and three atomic adds, which
	// the hot-path allocation ceiling test keeps honest).
	Metrics *obs.ServerMetrics
	// Listen overrides listener creation (nil = net.Listen), for the
	// native and the text listener alike. Fault harnesses install
	// chaos.Director.Listen here so accept-then-hang and partition rules
	// reach the request wire; the wrapper is free when no rules match,
	// which the hot-path allocation gate enforces.
	Listen func(network, addr string) (net.Listener, error)
}

// Stats counts server activity.
type Stats struct {
	Connections int64 // lifetime accepted connections
	Active      int64 // currently-open connections across workers
	Requests    int64 // requests processed
	Batches     int64 // batches processed
}

// Server is a running key/value cache server.
type Server struct {
	ln      net.Listener
	textLn  net.Listener      // nil without Config.TextAddr
	text    []*mctext.Metrics // one per worker
	persist *persist.Pipeline
	repl    *replica.Source
	m       *obs.ServerMetrics
	workers []*worker
	wg      sync.WaitGroup // acceptors
	readers sync.WaitGroup // per-connection goroutines
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  atomic.Bool

	accepted atomic.Int64
}

// maxKeptDecode is the largest decode buffer a connection keeps for its
// next batch. A batch's frames after its first are whole in the read
// buffer, so only a first frame larger than that buffer (a rare huge
// value) takes it past this size; such a buffer goes to the GC, so one
// large request cannot pin megabytes on an idle connection.
const maxKeptDecode = 2 * DefaultBufferSize

// connState is one connection: its writer, and the batch its goroutine
// decoded from one read and hands to its worker.
type connState struct {
	conn net.Conn
	w    *bufio.Writer
	wErr error
	// dec is a memcached text connection's codec (nil on a native one):
	// it decodes the requests, and replies are rendered as text.
	dec *mctext.Decoder

	// The batch: requests decoded from one read, their text reply shapes
	// (text only), and the bytes their StrKey/Value alias. Each grows on
	// demand and is reset once the batch has been answered, so a
	// connection holds what its largest batch needed and a one-request
	// connection holds one request.
	reqs    []protocol.Request
	replies []mctext.Reply
	bytes   []byte

	// wake and lead are worker.submit's hand-off: a queued connection
	// sleeps on wake until a holder has answered its batch, or, with lead
	// set, has handed it the worker.
	wake chan struct{}
	lead bool
}

// reset empties the batch for the next read.
func (cs *connState) reset() {
	if cap(cs.bytes) > maxKeptDecode {
		cs.bytes = nil
		clear(cs.reqs) // they alias the dropped buffer
	}
	cs.reqs, cs.replies, cs.bytes = cs.reqs[:0], cs.replies[:0], cs.bytes[:0]
}

// worker is a client thread: a backend and the lock that serializes its
// batches. It has no goroutine; the connection holding it runs batches.
type worker struct {
	backend  Backend
	conns    atomic.Int64
	requests atomic.Int64
	batches  atomic.Int64
	maxBatch int
	m        *obs.ServerMetrics
	// text counts the text-protocol traffic this worker serves.
	text mctext.Metrics
	// persist is the server's durability pipeline (nil without one);
	// groupCommit is set under SyncAlways, where every mutating batch
	// barriers on the WAL before its responses are written.
	persist     *persist.Pipeline
	groupCommit bool

	// mu guards busy (a connection holds the worker) and pending (the
	// connections whose batches wait for the next round).
	mu      sync.Mutex
	busy    bool
	pending []*connState

	// The holder's alone: the connections of the round being run, the
	// requests of a round of several, and the batch-wide results and
	// value buffers.
	round   []*connState
	reqs    []protocol.Request
	results []Result
	buf     []byte
	scanBuf []protocol.ScanEntry
}

// commit is the group-commit barrier: under sync=always it blocks until
// every record the backend published is fsynced. Responses are written
// only after it returns, so an acknowledged write is on disk.
func (w *worker) commit() {
	if w.groupCommit {
		w.persist.Barrier()
	}
}

// Serve starts the server; it returns once the listener is ready.
func Serve(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 512
	}
	if cfg.NewBackend == nil {
		return nil, fmt.Errorf("kvserver: Config.NewBackend is required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &obs.ServerMetrics{}
	}
	listen := cfg.Listen
	if listen == nil {
		listen = net.Listen
	}
	ln, err := listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, persist: cfg.Persist, repl: cfg.Replication, m: cfg.Metrics, conns: map[net.Conn]struct{}{}}
	if cfg.TextAddr != "" {
		if s.textLn, err = listen("tcp", cfg.TextAddr); err != nil {
			ln.Close()
			return nil, fmt.Errorf("kvserver: memcached text listener: %w", err)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		b, err := cfg.NewBackend(i)
		if err != nil {
			s.closeListeners()
			for _, w := range s.workers {
				w.backend.Close()
			}
			return nil, fmt.Errorf("kvserver: backend %d: %w", i, err)
		}
		w := &worker{
			backend:     b,
			maxBatch:    cfg.MaxBatch,
			m:           cfg.Metrics,
			persist:     cfg.Persist,
			groupCommit: cfg.Persist != nil && cfg.Persist.Policy() == persist.SyncAlways,
		}
		s.workers = append(s.workers, w)
		s.text = append(s.text, &w.text)
	}
	// Connections are accepted only once s.text is complete: a "stats"
	// command reads every worker's counters.
	s.wg.Add(1)
	go s.acceptLoop(s.ln, false)
	if s.textLn != nil {
		s.wg.Add(1)
		go s.acceptLoop(s.textLn, true)
	}
	return s, nil
}

func (s *Server) closeListeners() {
	s.ln.Close()
	if s.textLn != nil {
		s.textLn.Close()
	}
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// TextAddr returns the bound address of the memcached text listener, ""
// when the server runs without one.
func (s *Server) TextAddr() string {
	if s.textLn == nil {
		return ""
	}
	return s.textLn.Addr().String()
}

// Stats returns a snapshot of server counters.
func (s *Server) Stats() Stats {
	st := Stats{Connections: s.accepted.Load()}
	for _, w := range s.workers {
		st.Active += w.conns.Load()
		st.Requests += w.requests.Load()
		st.Batches += w.batches.Load()
	}
	return st
}

// Metrics returns the server's latency/batch histograms (never nil).
func (s *Server) Metrics() *obs.ServerMetrics { return s.m }

// Collect emits the server's counters and histograms into an exposition
// buffer; labels is a rendered obs.Labels set identifying this server.
func (s *Server) Collect(e *obs.Expo, labels string) {
	st := s.Stats()
	e.Counter("cphash_server_connections_total", "Lifetime accepted TCP connections.", labels, st.Connections)
	e.Gauge("cphash_server_active_connections", "Currently open connections.", labels, float64(st.Active))
	e.Counter("cphash_server_requests_total", "Requests processed.", labels, st.Requests)
	e.Counter("cphash_server_batches_total", "Batches processed.", labels, st.Batches)
	s.m.Collect(e, labels)
	if s.textLn != nil {
		mctext.Sum(s.text).Collect(e, labels)
	}
}

// Close shuts the server down: stop accepting, close connections, wait
// for the batches in flight, close backends.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.closeListeners()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	// Connection goroutines exit on their closed connections, each after
	// the batch it is running or has queued; only then may the backends
	// close.
	s.readers.Wait()
	s.wg.Wait()
	for _, w := range s.workers {
		w.backend.Close()
	}
	// No batch is in flight, so every processed mutation has been
	// published to the pipeline's change rings. A replication source must
	// see those final records, so the pipeline is barriered (rings drained
	// through the tail fanout) and the source closed BEFORE the pipeline:
	// followers receive everything this server processed, then the WAL
	// flushes and closes. Shutdown is the one flush even sync=none gets.
	if s.repl != nil {
		if s.persist != nil {
			s.persist.Barrier()
		}
		s.repl.Close()
	}
	if s.persist != nil {
		s.persist.Close()
	}
	return nil
}

// dropConn closes a connection and forgets it.
func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// acceptLoop assigns ln's connections — native, or memcached text — to
// the least-loaded worker (§4.1's smallest-active-connections balancer).
func (s *Server) acceptLoop(ln net.Listener, text bool) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tcp, ok := conn.(*net.TCPConn); ok {
			tcp.SetNoDelay(true)
		}
		s.accepted.Add(1)
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		// The worker count is incremented only once serveConn — whose
		// defer is the one place it is decremented — is guaranteed to
		// start. A connection refused above (server closing) or one that
		// dies instantly inside serveConn therefore balances to zero
		// exactly once; incrementing before the closed-check leaked a
		// phantom connection onto the worker forever. Both counters are
		// bumped while mu is still held: Close sets closed before taking
		// mu, so once it holds the lock every accepted reader is already
		// registered and readers.Wait cannot race a pending Add.
		w := s.leastLoadedWorker()
		w.conns.Add(1)
		s.readers.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn, w, text)
	}
}

func (s *Server) leastLoadedWorker() *worker {
	best := s.workers[0]
	for _, w := range s.workers[1:] {
		if w.conns.Load() < best.conns.Load() {
			best = w
		}
	}
	return best
}

// serveConn is one connection's goroutine. It decodes every request its
// read buffer holds, up to MaxBatch, into one batch, runs the batch on
// its worker, and reads again. Only a batch's first request may wait on
// the socket: each later one is decoded only once protocol.FrameLen (on a
// text connection, the Decoder's Ready) has found it whole in the buffer,
// so everything a client pipelined is served, and answered, without
// waiting for more. The batch's slices keep their capacity from one read
// to the next, so the steady state allocates nothing.
func (s *Server) serveConn(conn net.Conn, w *worker, text bool) {
	defer s.readers.Done()
	cs := &connState{conn: conn, w: bufio.NewWriterSize(conn, DefaultBufferSize), wake: make(chan struct{}, 1)}
	if text {
		cs.dec = mctext.NewDecoder(&w.text, s.text)
		w.text.Connections.Inc()
		w.text.Active.Inc()
	}
	defer func() {
		if text {
			w.text.Active.Add(-1)
		}
		w.conns.Add(-1)
		s.dropConn(conn)
	}()
	br := bufio.NewReaderSize(conn, DefaultBufferSize)
	for {
		err := cs.decode(br)
		for err == nil && len(cs.reqs) < w.maxBatch && cs.whole(br) {
			err = cs.decode(br)
		}
		if s.closed.Load() {
			return
		}
		// A request that fails to decode (EOF, truncation, a protocol
		// error) ends the connection, but only once the ones ahead of it
		// are answered: a text client may send its last command and
		// half-close (printf 'get k\r\n' | nc), and still want the reply.
		if len(cs.reqs) > 0 {
			w.submit(cs)
		}
		if err != nil || cs.wErr != nil {
			return
		}
		cs.reset()
	}
}

// decode appends the next request to the batch, waiting on the socket if
// the read buffer holds none.
func (cs *connState) decode(br *bufio.Reader) error {
	n := len(cs.reqs)
	cs.reqs = slices.Grow(cs.reqs, 1)[:n+1]
	var err error
	if cs.dec != nil {
		var rp mctext.Reply
		if rp, cs.bytes, err = cs.dec.Next(br, &cs.reqs[n], cs.bytes); err == nil {
			cs.replies = append(cs.replies, rp)
		}
	} else {
		cs.bytes, err = protocol.DecodeRequestInto(br, &cs.reqs[n], cs.bytes)
	}
	if err != nil {
		cs.reqs = cs.reqs[:n]
	}
	return err
}

// whole reports whether the read buffer holds all of the next request,
// so decoding it cannot wait on the socket.
func (cs *connState) whole(br *bufio.Reader) bool {
	if cs.dec != nil {
		return cs.dec.Ready(br)
	}
	p, _ := br.Peek(br.Buffered())
	n, err := protocol.FrameLen(p)
	return err == nil && n > 0 && n <= len(p)
}

// submit runs cs's batch on its worker by flat combining. A connection
// that finds the worker free holds it for one round: it takes the batches
// queued so far, its own first, up to MaxBatch requests in all, runs them
// together, wakes their connections, and hands the worker to the first
// connection still queued. A connection that finds the worker busy queues
// its batch and sleeps until a holder has answered it or handed it the
// worker. Alone on its worker, a connection pays two uncontended lock
// round trips per batch and no channel operation.
func (w *worker) submit(cs *connState) {
	w.mu.Lock()
	w.pending = append(w.pending, cs)
	if w.busy {
		w.mu.Unlock()
		if <-cs.wake; !cs.lead {
			return // a holder ran the batch
		}
		cs.lead = false
		w.mu.Lock()
	}
	// cs heads the queue: it was empty while the worker was free, and the
	// worker is handed on only to the head.
	w.busy = true
	k, n := 1, len(cs.reqs)
	for k < len(w.pending) && n+len(w.pending[k].reqs) <= w.maxBatch {
		n += len(w.pending[k].reqs)
		k++
	}
	w.round = append(w.round[:0], w.pending[:k]...)
	rest := copy(w.pending, w.pending[k:])
	clear(w.pending[rest:])
	w.pending = w.pending[:rest]
	w.mu.Unlock()

	w.run(w.round)

	for i, c := range w.round {
		if c != cs {
			c.wake <- struct{}{}
		}
		w.round[i] = nil
	}
	w.mu.Lock()
	var next *connState
	if len(w.pending) > 0 {
		next = w.pending[0]
		next.lead = true
	} else {
		w.busy = false
	}
	w.mu.Unlock()
	if next != nil {
		next.wake <- struct{}{}
	}
}

// roundCursor maps an index into a round's requests, concatenated in
// round order, back to its connection and the index in that connection's
// batch. Indexes must not decrease from one call to the next.
type roundCursor struct {
	round   []*connState
	k, base int
}

func (c *roundCursor) at(i int) (*connState, int) {
	for i-c.base >= len(c.round[c.k].reqs) {
		c.base += len(c.round[c.k].reqs)
		c.k++
	}
	return c.round[c.k], i - c.base
}

// run executes one round, at most MaxBatch requests: the batches of
// round's connections, in order, through the backend, then flushes every
// connection. A lone batch runs from its connection's own slice; several
// are first copied into one.
// Every buffer — the worker's results, value and scan buffers, the
// connections' writers and batch slices — is reused, so the steady state
// allocates nothing.
func (w *worker) run(round []*connState) {
	// One clock read here and one after the flush bound the whole round:
	// the batch-latency histogram gets one sample, the op-latency
	// histogram gets one sample per request at the per-op share. Two clock
	// reads and a handful of atomic adds per round — cheap enough to stay
	// always-on under the hot-path allocation ceiling.
	start := time.Now()
	reqs := round[0].reqs
	if len(round) > 1 {
		reqs = w.reqs[:0]
		for _, cs := range round {
			reqs = append(reqs, cs.reqs...)
		}
		w.reqs = reqs
	}
	owner := roundCursor{round: round}
	// none counts the round's mctext.OpNone requests — canned text
	// replies, which hold a place in the reply order but are not table
	// operations: they stay out of the request and latency series.
	none := 0

	// SCAN/PURGE are execution barriers: the round is split at each one
	// so bulk iteration observes every earlier mutation of the round and
	// none of the later ones — the per-connection FIFO the protocol
	// promises — while plain segments still flow through the backend as
	// whole batches.
	for lo := 0; lo < len(reqs); {
		hi := lo
		for hi < len(reqs) && reqs[hi].Op != protocol.OpScan && reqs[hi].Op != protocol.OpPurge {
			hi++
		}
		if seg := reqs[lo:hi]; len(seg) > 0 {
			mutating := false
			for i := range seg {
				switch seg[i].Op {
				case protocol.OpLookup, protocol.OpGetStr, protocol.OpGets, protocol.OpGetsStr:
				case mctext.OpNone:
					none++
				default:
					mutating = true
				}
			}
			results := slices.Grow(w.results[:0], len(seg))[:len(seg)]
			clear(results)
			w.results = results
			w.buf = w.backend.ProcessBatch(seg, results, w.buf[:0])
			// Group commit before any response bytes are staged: the
			// bufio writers may spill to the socket mid-loop, so the
			// barrier cannot wait until the flush below. Read-only
			// segments publish nothing and skip the barrier.
			if mutating {
				w.commit()
			}
			for i := lo; i < hi; i++ {
				if cs, j := owner.at(i); cs.wErr == nil {
					cs.wErr = w.reply(cs, j, results[i-lo])
				}
			}
		}
		if hi < len(reqs) && (reqs[hi].Op == protocol.OpScan || reqs[hi].Op == protocol.OpPurge) {
			if cs, _ := owner.at(hi); cs.wErr == nil {
				cs.wErr = w.respondScan(cs, &reqs[hi])
			}
			hi++
		}
		lo = hi
	}
	n := int64(len(reqs) - none)
	if n > 0 {
		// Counted before any response goes out, so a client that has
		// read a response sees its request in Stats.
		w.requests.Add(n)
		w.batches.Add(1)
	}
	for _, cs := range round {
		if cs.wErr == nil {
			cs.wErr = cs.w.Flush()
		}
	}
	if n == 0 {
		return // nothing but canned replies: not a batch of requests
	}
	elapsed := time.Since(start).Nanoseconds()
	w.m.BatchLatency.Record(elapsed)
	w.m.BatchSize.Record(n)
	w.m.OpLatency.RecordN(elapsed/n, n)
}

// reply buffers the response to request j of cs's batch, given its
// result; inserts are silent.
func (w *worker) reply(cs *connState, j int, r Result) error {
	req := &cs.reqs[j]
	if cs.dec != nil {
		return w.text.WriteReply(cs.w, cs.replies[j], req,
			mctext.Outcome{Value: w.buf[r.Start:r.End], Found: r.Found, Status: r.Status, Ver: r.Ver, Num: r.Num})
	}
	switch req.Op {
	case protocol.OpLookup, protocol.OpGetStr:
		return protocol.WriteLookupResponse(cs.w, w.buf[r.Start:r.End], r.Found)
	case protocol.OpGets, protocol.OpGetsStr:
		return protocol.WriteGetsResponse(cs.w, w.buf[r.Start:r.End], r.Ver, r.Found)
	case protocol.OpDelete, protocol.OpDelStr:
		return protocol.WriteDeleteResponse(cs.w, r.Found)
	}
	if protocol.IsRMW(req.Op) {
		return protocol.WriteRMWResponse(cs.w, r.Status, r.Ver, r.Num)
	}
	return nil
}

// respondScan serves one SCAN/PURGE request against the worker's backend,
// reusing the worker's scanBuf across calls. The response is buffered
// into the connection's writer before it returns, so the backend's scan
// slab the entries alias may be refilled by the next scan. A backend
// error (the table is closing) writes nothing and poisons the
// connection's writer, so the connection ends after the round: no
// misaligned response follows, and the client is not left waiting for a
// response that never comes.
func (w *worker) respondScan(cs *connState, req *protocol.Request) error {
	sc, ok := w.backend.(SlotScanner)
	if !ok {
		if req.Op == protocol.OpPurge {
			return protocol.WritePurgeResponse(cs.w, protocol.ScanDone, 0)
		}
		return protocol.WriteScanResponse(cs.w, protocol.ScanDone, nil)
	}
	if req.Op == protocol.OpPurge {
		removed, next, err := sc.PurgeSlots(&req.Slots, req.Cursor)
		if err != nil {
			return err
		}
		// Purges delete entries (migration's post-move cleanup); under
		// group commit their removal records hit disk before the ack, so
		// a crash cannot resurrect entries the coordinator saw purged.
		w.commit()
		return protocol.WritePurgeResponse(cs.w, next, uint32(removed))
	}
	max := int(req.Count)
	if max <= 0 || max > protocol.MaxScanBatch {
		max = protocol.MaxScanBatch
	}
	entries, next, err := sc.ScanSlots(&req.Slots, req.Cursor, max, w.scanBuf[:0])
	w.scanBuf = entries
	if err != nil {
		return err
	}
	return protocol.WriteScanResponse(cs.w, next, entries)
}

// --- backends ---

// routedKey maps a request onto the 60-bit fixed key space: string-key ops
// hash through protocol.HashStringKey, fixed-key ops pass through.
func routedKey(r protocol.Request) uint64 {
	if r.StrKey != nil {
		return protocol.HashStringKey(r.StrKey)
	}
	return r.Key
}

// wireTTL converts a wire millisecond TTL into a duration (0 = never).
func wireTTL(ms uint32) time.Duration {
	return time.Duration(ms) * time.Millisecond
}

// The wire RMW status codes are defined to be numerically identical to the
// partition engine's, so harvesting an outcome is a plain cast. These
// constant indexes fail to compile if either enumeration drifts.
var (
	_ = [1]struct{}{}[partition.RMWStored-partition.RMWStatus(protocol.RMWStatusStored)]
	_ = [1]struct{}{}[partition.RMWNotStored-partition.RMWStatus(protocol.RMWStatusNotStored)]
	_ = [1]struct{}{}[partition.RMWExists-partition.RMWStatus(protocol.RMWStatusExists)]
	_ = [1]struct{}{}[partition.RMWNotFound-partition.RMWStatus(protocol.RMWStatusNotFound)]
	_ = [1]struct{}{}[partition.RMWBadValue-partition.RMWStatus(protocol.RMWStatusBadValue)]
	_ = [1]struct{}{}[partition.RMWTooLarge-partition.RMWStatus(protocol.RMWStatusTooLarge)]
	_ = [1]struct{}{}[partition.RMWNoSpace-partition.RMWStatus(protocol.RMWStatusNoSpace)]
)

// rmwOpOf maps a wire read-modify-write opcode onto the partition engine's
// flavor (0 for a non-RMW opcode).
func rmwOpOf(op uint8) partition.RMWOp {
	switch op {
	case protocol.OpCas, protocol.OpCasStr:
		return partition.RMWCas
	case protocol.OpAdd, protocol.OpAddStr:
		return partition.RMWAdd
	case protocol.OpReplace, protocol.OpReplaceStr:
		return partition.RMWReplace
	case protocol.OpAppend, protocol.OpAppendStr:
		return partition.RMWAppend
	case protocol.OpPrepend, protocol.OpPrependStr:
		return partition.RMWPrepend
	case protocol.OpIncr, protocol.OpIncrStr:
		return partition.RMWIncr
	case protocol.OpDecr, protocol.OpDecrStr:
		return partition.RMWDecr
	case protocol.OpTouch, protocol.OpTouchStr:
		return partition.RMWTouch
	}
	return 0
}

// rmwReqOf translates a wire RMW request into the partition engine's form.
// StrKey/Val alias the request's decode arena; that honors the no-retention
// contract because the engine copies on store and the request outlives the
// synchronous (or settled-before-return) execution.
func rmwReqOf(r protocol.Request) partition.RMWReq {
	return partition.RMWReq{
		Op:     rmwOpOf(r.Op),
		StrKey: r.StrKey,
		Val:    r.Value,
		Ver:    r.Ver,
		Delta:  r.Delta,
		TTL:    r.TTL,
		Prefix: int(r.Prefix),
		MaxVal: protocol.MaxValueSize,
	}
}

// cphashBackend pipelines a batch through a CPHASH client handle.
type cphashBackend struct {
	client *core.Client
	table  *core.Table
	ops    []*core.Op
	idx    []int    // result index per op; -1 for inserts
	keys   [][]byte // string key per op for GET_STR verification; else nil
	// entryBuf stages SET_STR stored entries (klen|key|value framing) for
	// the current batch. It is sized up front so mid-batch appends never
	// reallocate: in-flight inserts hold pointers into it until they
	// settle, which all happens before ProcessBatch returns.
	entryBuf []byte
	scan     scanScratch
}

// NewCPHashBackend returns a Backend factory over one CPHASH table: worker
// i uses client handle i. The table must have been created with MaxClients
// ≥ the worker count.
func NewCPHashBackend(t *core.Table) func(worker int) (Backend, error) {
	return func(worker int) (Backend, error) {
		c, err := t.Client(worker)
		if err != nil {
			return nil, err
		}
		return &cphashBackend{client: c, table: t}, nil
	}
}

// ProcessBatch pipelines the whole batch asynchronously — deletes and RMWs
// ride the same rings as lookups and inserts. The owning server publishes
// an insert, and its change record, before it replies, and a key's
// operations all travel one FIFO ring, so a LOOKUP or RMW of a key
// written earlier in the same batch observes the write without waiting
// for it.
func (b *cphashBackend) ProcessBatch(reqs []protocol.Request, results []Result, buf []byte) []byte {
	b.ops = b.ops[:0]
	b.idx = b.idx[:0]
	b.keys = b.keys[:0]
	// Pre-size the SET_STR staging slab: growing it mid-batch would move
	// entries out from under in-flight inserts.
	need := 0
	for i := range reqs {
		if reqs[i].Op == protocol.OpSetStr {
			need += 4 + len(reqs[i].StrKey) + len(reqs[i].Value)
		}
	}
	if cap(b.entryBuf) < need {
		b.entryBuf = make([]byte, 0, need+need/2)
	}
	b.entryBuf = b.entryBuf[:0]
	for i, r := range reqs {
		key := routedKey(r)
		switch r.Op {
		case protocol.OpLookup, protocol.OpGetStr, protocol.OpGets, protocol.OpGetsStr:
			b.ops = append(b.ops, b.client.LookupAsync(key))
			b.idx = append(b.idx, i)
			b.keys = append(b.keys, r.StrKey)
		case protocol.OpInsert, protocol.OpInsertTTL:
			// INSERTs are silent; still track the op so values (owned by
			// the reader-created request) stay live until copied.
			b.insert(b.client.InsertTTLAsync(key, r.Value, wireTTL(r.TTL)))
		case protocol.OpSetStr:
			// Embed the string key in the stored entry so collisions are
			// detectable at read time. The entry bytes must stay stable
			// until the server has copied them; they live in the pre-sized
			// batch slab, which cannot reallocate.
			mark := len(b.entryBuf)
			b.entryBuf = protocol.AppendStringEntry(b.entryBuf, r.StrKey, r.Value)
			entry := b.entryBuf[mark:len(b.entryBuf):len(b.entryBuf)]
			b.insert(b.client.InsertTTLAsync(key, entry, wireTTL(r.TTL)))
		case protocol.OpDelete, protocol.OpDelStr:
			b.ops = append(b.ops, b.client.DeleteAsync(key))
			b.idx = append(b.idx, i)
			b.keys = append(b.keys, nil)
		case protocol.OpInsertVer:
			// Replay-with-version (migration, replica catch-up): silent
			// like INSERT, value bytes already carry any string framing.
			b.insert(b.client.InsertTTLVerAsync(key, r.Value, wireTTL(r.TTL), r.Ver))
		default:
			if !protocol.IsRMW(r.Op) {
				continue
			}
			b.ops = append(b.ops, b.client.RMWAsync(key, rmwReqOf(r)))
			b.idx = append(b.idx, i)
			b.keys = append(b.keys, nil)
		}
	}
	buf = b.settle(results, buf)
	b.ops = b.ops[:0]
	b.keys = b.keys[:0]
	return buf
}

// insert tracks a just-issued (silent) insert so its value stays live
// until the server has copied it.
func (b *cphashBackend) insert(op *core.Op) {
	b.ops = append(b.ops, op)
	b.idx = append(b.idx, -1)
	b.keys = append(b.keys, nil)
}

// settle waits for every op of the batch, harvests lookup, delete and RMW
// results, and releases everything.
func (b *cphashBackend) settle(results []Result, buf []byte) []byte {
	b.client.WaitAll()
	for j := range b.ops {
		op := b.ops[j]
		i := b.idx[j]
		if i >= 0 {
			switch op.Type() {
			case core.OpLookup:
				if op.Hit() {
					raw := op.Value()
					v, ok := raw, true
					if sk := b.keys[j]; sk != nil {
						// GET_STR/GETS_STR: verify the embedded key; a
						// 60-bit hash collision stays a miss.
						v, ok = protocol.CutStringEntry(raw, sk)
					}
					if ok {
						start := int32(len(buf))
						buf = append(buf, v...)
						// Ver is harvested unconditionally: GETS consumes
						// it, plain LOOKUP responses ignore it.
						results[i] = Result{Start: start, End: int32(len(buf)), Found: true, Ver: op.Version()}
					}
				}
			case core.OpDelete:
				results[i] = Result{Found: op.Hit()}
			case core.OpRMW:
				r := op.RMW()
				results[i] = Result{Status: uint8(r.Status), Ver: r.OutVer, Num: r.Num}
			}
		}
		b.client.Release(op)
	}
	return buf
}

func (b *cphashBackend) Close() { b.client.Close() }

// slotFilter adapts a wire slot bitmap to the key predicate the tables'
// scan paths take. Keys land in slots exactly as the client-side continuum
// places them, so client and server agree on which entries a slot owns.
func slotFilter(slots *protocol.SlotSet) func(uint64) bool {
	return func(k uint64) bool { return slots.Has(cluster.SlotOf(k)) }
}

// ttlMillis converts a remaining TTL to the wire's millisecond field,
// rounding up so "expires soon" never becomes "never expires" (0).
func ttlMillis(ttl time.Duration) uint32 {
	if ttl <= 0 {
		return 0
	}
	ms := (ttl + time.Millisecond - 1) / time.Millisecond
	if ms > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(ms)
}

// scanScratch is a backend's reusable SCAN output: the table's entries
// and the value slab they alias. A backend serves one worker, which
// buffers each SCAN response before its next scan, so the slab is
// refilled only after the bytes it held have been written out.
type scanScratch struct {
	entries []partition.ScanEntry
	vals    []byte
}

// appendWireEntries converts partition scan entries to wire entries. The
// value bytes were already copied out of the partition into the scan
// slab, so the wire entry aliases them instead of copying again.
func appendWireEntries(dst []protocol.ScanEntry, entries []partition.ScanEntry) []protocol.ScanEntry {
	for _, e := range entries {
		dst = append(dst, protocol.ScanEntry{Key: e.Key, TTL: ttlMillis(e.TTL), Version: e.Version, Value: e.Value})
	}
	return dst
}

// ScanSlots implements SlotScanner over the CPHASH table: iteration jobs
// execute on the owning server goroutines at sweep boundaries.
func (b *cphashBackend) ScanSlots(slots *protocol.SlotSet, cursor uint64, max int, dst []protocol.ScanEntry) ([]protocol.ScanEntry, uint64, error) {
	entries, vals, next, done, err := b.table.ScanEntries(cursor, max, slotFilter(slots), b.scan.entries[:0], b.scan.vals[:0])
	b.scan = scanScratch{entries, vals}
	if err != nil {
		return dst, cursor, err
	}
	if done {
		next = protocol.ScanDone
	}
	return appendWireEntries(dst, entries), next, nil
}

// PurgeSlots implements SlotScanner over the CPHASH table.
func (b *cphashBackend) PurgeSlots(slots *protocol.SlotSet, cursor uint64) (int, uint64, error) {
	removed, next, done, err := b.table.PurgeEntries(cursor, slotFilter(slots))
	if err != nil {
		return 0, cursor, err
	}
	if done {
		next = protocol.ScanDone
	}
	return removed, next, nil
}

// lockhashBackend executes a batch synchronously against LOCKHASH.
type lockhashBackend struct {
	table *lockhash.Table
	entry []byte // SET_STR staging (Put copies under the lock)
	scan  scanScratch
}

// NewLockHashBackend returns a Backend factory over one LOCKHASH table
// shared by all workers.
func NewLockHashBackend(t *lockhash.Table) func(worker int) (Backend, error) {
	return func(int) (Backend, error) {
		return &lockhashBackend{table: t}, nil
	}
}

func (b *lockhashBackend) ProcessBatch(reqs []protocol.Request, results []Result, buf []byte) []byte {
	for i, r := range reqs {
		switch r.Op {
		case protocol.OpLookup, protocol.OpGetStr, protocol.OpGets, protocol.OpGetsStr:
			// GetVer copies value and version under one lock hold, so a
			// GETS pairs the value with its own version.
			start := len(buf)
			var ver uint64
			var found bool
			if buf, ver, found = b.table.GetVer(routedKey(r), buf); !found {
				continue
			}
			if r.StrKey != nil {
				// GET_STR/GETS_STR: verify the embedded key and keep only
				// the value; a 60-bit hash collision stays a miss.
				v, ok := protocol.CutStringEntry(buf[start:], r.StrKey)
				if buf = buf[:start+copy(buf[start:], v)]; !ok {
					continue
				}
			}
			results[i] = Result{Start: int32(start), End: int32(len(buf)), Found: true, Ver: ver}
		case protocol.OpInsert, protocol.OpInsertTTL:
			b.table.PutTTL(r.Key, r.Value, wireTTL(r.TTL))
		case protocol.OpSetStr:
			b.entry = protocol.AppendStringEntry(b.entry[:0], r.StrKey, r.Value)
			b.table.PutTTL(protocol.HashStringKey(r.StrKey), b.entry, wireTTL(r.TTL))
		case protocol.OpDelete:
			results[i] = Result{Found: b.table.Delete(r.Key)}
		case protocol.OpDelStr:
			results[i] = Result{Found: b.table.Delete(protocol.HashStringKey(r.StrKey))}
		case protocol.OpInsertVer:
			b.table.PutTTLVer(r.Key, r.Value, wireTTL(r.TTL), r.Ver)
		default:
			if protocol.IsRMW(r.Op) {
				req := rmwReqOf(r)
				b.table.RMW(routedKey(r), &req)
				results[i] = Result{Status: uint8(req.Status), Ver: req.OutVer, Num: req.Num}
			}
		}
	}
	return buf
}

func (b *lockhashBackend) Close() {}

// ScanSlots implements SlotScanner over the LOCKHASH table, holding each
// partition spinlock only for a bounded bucket stretch.
func (b *lockhashBackend) ScanSlots(slots *protocol.SlotSet, cursor uint64, max int, dst []protocol.ScanEntry) ([]protocol.ScanEntry, uint64, error) {
	entries, vals, next, done := b.table.ScanEntries(cursor, max, slotFilter(slots), b.scan.entries[:0], b.scan.vals[:0])
	b.scan = scanScratch{entries, vals}
	if done {
		next = protocol.ScanDone
	}
	return appendWireEntries(dst, entries), next, nil
}

// PurgeSlots implements SlotScanner over the LOCKHASH table.
func (b *lockhashBackend) PurgeSlots(slots *protocol.SlotSet, cursor uint64) (int, uint64, error) {
	removed, next, done := b.table.PurgeEntries(cursor, slotFilter(slots))
	if done {
		next = protocol.ScanDone
	}
	return removed, next, nil
}

// Sanity: both backends implement Backend and its migration extension.
var (
	_ Backend     = (*cphashBackend)(nil)
	_ Backend     = (*lockhashBackend)(nil)
	_ SlotScanner = (*cphashBackend)(nil)
	_ SlotScanner = (*lockhashBackend)(nil)
)

// DefaultBufferSize is the per-connection bufio buffer size, read and
// write side, on the server and in Dial.
const DefaultBufferSize = 64 << 10

// Dial is a tiny client helper used by tests and examples: it connects and
// returns request/response codecs plus a closer.
func Dial(addr string) (*bufio.Writer, *bufio.Reader, io.Closer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, nil, err
	}
	if tcp, ok := conn.(*net.TCPConn); ok {
		tcp.SetNoDelay(true)
	}
	return bufio.NewWriterSize(conn, DefaultBufferSize), bufio.NewReaderSize(conn, DefaultBufferSize), conn, nil
}

// MaskKey clips a wire key into the table's 60-bit key space.
func MaskKey(k uint64) uint64 { return k & partition.MaxKey }

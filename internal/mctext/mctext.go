// Package mctext is the memcached text-protocol codec of a cphash server:
// a tokenizer, the translation of each command into protocol version-4
// requests, and the rendering of their outcomes as memcached replies. It
// does no network I/O of its own. kvserver attaches a text listener to a
// running server (Config.TextAddr, cpserver -memcached) and runs its
// connections through the same reader, worker batching, backend and
// group-commit barrier as native ones, with this package as the codec —
// so a stock memcached client talks to the table with no proxy and no
// second connection in between.
//
// Translation rules:
//
//   - Keys are memcached string keys (≤250 bytes, no whitespace or
//     control bytes) and map onto the string-key op variants, which hash
//     through the same 60-bit key space as native callers.
//   - The 32-bit flags word is persisted as a 4-byte little-endian
//     prefix of the stored value; APPEND/PREPEND/INCR/DECR requests carry
//     wire Prefix=4 so the engine splices after (and parses past) it.
//     Values stored by native callers have no such prefix and read back
//     through this codec as flags=0 when shorter than 4 bytes.
//   - exptime follows memcached semantics: 0 never expires, negative is
//     already expired, values ≤ 30 days are relative seconds, larger
//     values are absolute unix seconds. All convert to the native
//     millisecond TTL.
//   - "set" maps onto the native SET_STR and answers STORED once the
//     batch holding it has executed — under -sync always, once its WAL
//     records are fsynced — like every other reply.
//   - A multi-key get becomes one request per key; the last one carries
//     Reply.End. Commands the table never sees (version, stats, parse
//     errors) travel as OpNone requests whose Value is the reply text,
//     so they keep their place in the connection's reply order.
//
// A Decoder holds one connection's recycled parse state and writes keys
// and values straight into the arena the caller lends it; WriteReply
// formats into the connection writer's own buffer. Steady-state traffic
// allocates nothing per command.
package mctext

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strconv"
	"time"

	"cphash/internal/obs"
	"cphash/internal/protocol"
)

// maxValueLen bounds one text-protocol payload: the native value bound
// minus the 4-byte flags prefix this codec adds.
const maxValueLen = protocol.MaxValueSize - flagsPrefixLen

// flagsPrefixLen is the stored-value prefix holding the flags word.
const flagsPrefixLen = 4

// thirtyDays is memcached's relative/absolute exptime watershed.
const thirtyDays = 60 * 60 * 24 * 30

// maxHeaderLen bounds a "VALUE <key> <flags> <bytes> <cas>\r\n" line.
const maxHeaderLen = len("VALUE ") + MaxKeyLen + 1 + 10 + 1 + 10 + 1 + 20 + 2

// OpNone is the opcode of a request that carries no table operation: a
// command answered from req.Value (version, stats, an error line), or a
// placeholder with nothing to say (a nil Value). Backends skip it — no
// protocol opcode is 0 — and the server keeps it out of its request
// counters; it only holds the reply's place in the connection's order.
const OpNone = 0

var errLineTooLong = errors.New("mctext: line too long")

// The replies that depend on nothing but the command.
var (
	replyError    = []byte("ERROR\r\n")
	replyBadLine  = []byte("CLIENT_ERROR bad command line format\r\n")
	replyBadChunk = []byte("CLIENT_ERROR bad data chunk\r\n")
	replyTooLong  = []byte("CLIENT_ERROR line too long\r\n")
	replyVersion  = []byte("VERSION cphash-mctext\r\n")
)

// Metrics counts one worker's share of the text traffic. The hot
// counters (commands, hits, misses) are written by the worker as it
// renders replies, so the adds are uncontended; the pads keep two workers'
// blocks off one cache line. The worker's connections' readers add the
// rest: connection counts, parse errors, and the commands that never
// reach the table.
type Metrics struct {
	_ [64]byte

	Connections obs.Counter // lifetime accepted text connections
	Active      obs.Counter // currently open text connections
	Commands    obs.Counter // commands parsed and answered
	GetHits     obs.Counter // get/gets keys answered with a value
	GetMisses   obs.Counter // get/gets keys answered with a miss
	ParseErrors obs.Counter // command lines the tokenizer rejected

	_ [64]byte
}

// Totals is the sum of a server's per-worker Metrics.
type Totals struct {
	Connections, Active, Commands, GetHits, GetMisses, ParseErrors int64
}

// Sum adds up the workers' counters.
func Sum(ms []*Metrics) (t Totals) {
	for _, m := range ms {
		t.Connections += m.Connections.Load()
		t.Active += m.Active.Load()
		t.Commands += m.Commands.Load()
		t.GetHits += m.GetHits.Load()
		t.GetMisses += m.GetMisses.Load()
		t.ParseErrors += m.ParseErrors.Load()
	}
	return t
}

// Collect emits the counters into an exposition buffer.
func (t Totals) Collect(e *obs.Expo, labels string) {
	e.Counter("cphash_mctext_connections_total", "Lifetime accepted memcached text connections.", labels, t.Connections)
	e.Gauge("cphash_mctext_active_connections", "Currently open memcached text connections.", labels, float64(t.Active))
	e.Counter("cphash_mctext_commands_total", "Text-protocol commands processed.", labels, t.Commands)
	e.Counter("cphash_mctext_get_hits_total", "get/gets keys answered with a value.", labels, t.GetHits)
	e.Counter("cphash_mctext_get_misses_total", "get/gets keys answered with a miss.", labels, t.GetMisses)
	e.Counter("cphash_mctext_parse_errors_total", "Command lines rejected by the tokenizer.", labels, t.ParseErrors)
}

// appendStats renders the "stats" reply.
func (t Totals) appendStats(dst []byte) []byte {
	for _, s := range [...]struct {
		name string
		v    int64
	}{
		{"curr_connections", t.Active},
		{"total_connections", t.Connections},
		{"cmd_total", t.Commands},
		{"get_hits", t.GetHits},
		{"get_misses", t.GetMisses},
		{"parse_errors", t.ParseErrors},
	} {
		dst = append(append(dst, "STAT "...), s.name...)
		dst = strconv.AppendInt(append(dst, ' '), s.v, 10)
		dst = append(dst, '\r', '\n')
	}
	return append(dst, "END\r\n"...)
}

// Reply is what WriteReply needs to know about a request beyond its
// opcode; it travels beside the request from the Decoder to the writer.
type Reply struct {
	NoReply bool // the command said noreply: execute, answer nothing
	End     bool // last key of a get/gets: "END" follows its value
	// Close is set by the server, not the Decoder, on the empty OpNone
	// request it queues once a connection's reader has gone: everything
	// ahead of it has been answered, so the connection can be dropped.
	Close bool
}

// Outcome is the table's answer to one translated request.
type Outcome struct {
	Value  []byte // get/gets hit: the stored bytes, flags prefix included
	Found  bool   // get/gets hit, delete removed an entry
	Status uint8  // read-modify-write status (protocol.RMWStatus*)
	Ver    uint64 // gets: the entry's cas unique
	Num    uint64 // incr/decr: the new number
}

// Decoder translates one connection's command stream into requests.
type Decoder struct {
	own *Metrics   // the connection's worker's counters
	all []*Metrics // every worker's, for "stats"

	cmd    textCmd
	fields [][]byte
	keys   [][]byte // keys of the current get/gets not yet handed out; alias the reader's buffer
	getOp  uint8
	err    error // sticky: returned once the pending reply has been handed out
}

// NewDecoder returns a connection's decoder. own is the Metrics of the
// worker serving the connection, all the Metrics of every worker.
func NewDecoder(own *Metrics, all []*Metrics) *Decoder {
	return &Decoder{own: own, all: all}
}

// Next parses one request off br into *req. Key and value bytes are
// appended to arena, which is returned grown; req.StrKey and req.Value
// alias it (or, for an OpNone request, a constant). Next blocks only
// while br holds no complete command. A malformed command yields an
// OpNone request carrying its error reply and leaves the stream
// usable; io.EOF after "quit", and any read error, end the connection.
func (d *Decoder) Next(br *bufio.Reader, req *protocol.Request, arena []byte) (Reply, []byte, error) {
	for len(d.keys) == 0 {
		if d.err != nil {
			return Reply{}, arena, d.err
		}
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) || len(line) > MaxLineLen {
			// The rest of the line is unbounded: answer, then hang up.
			d.err = errLineTooLong
			return d.reject(req, replyTooLong), arena, nil
		}
		if err != nil {
			return Reply{}, arena, err
		}
		line = line[:len(line)-1]
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		if d.fields, err = parseLine(line, &d.cmd, d.fields); err != nil {
			if errors.Is(err, errProtocol) {
				return d.reject(req, replyError), arena, nil
			}
			return d.reject(req, replyBadLine), arena, nil
		}
		switch d.cmd.verb {
		case verbGet:
			d.keys, d.getOp = d.cmd.keys, protocol.OpGetStr
		case verbGets:
			d.keys, d.getOp = d.cmd.keys, protocol.OpGetsStr
		case verbQuit:
			d.own.Commands.Inc()
			return Reply{}, arena, io.EOF
		case verbVersion:
			d.own.Commands.Inc()
			*req = protocol.Request{Value: replyVersion}
			return Reply{}, arena, nil
		case verbStats:
			d.own.Commands.Inc()
			arena = Sum(d.all).appendStats(arena)
			*req = protocol.Request{Value: arena}
			return Reply{}, arena, nil
		default:
			return d.translate(br, req, arena)
		}
	}
	mark := len(arena)
	arena = append(arena, d.keys[0]...)
	d.keys = d.keys[1:]
	*req = protocol.Request{Op: d.getOp, StrKey: arena[mark:]}
	return Reply{End: len(d.keys) == 0}, arena, nil
}

// reject turns a command the tokenizer refused into its error reply.
func (d *Decoder) reject(req *protocol.Request, reply []byte) Reply {
	d.own.ParseErrors.Inc()
	*req = protocol.Request{Value: reply}
	return Reply{}
}

// translate builds the request of a single-key command, reading the data
// block of a storage command into the arena. The key is copied out of
// the line first: reading the block invalidates the reader's buffer.
func (d *Decoder) translate(br *bufio.Reader, req *protocol.Request, arena []byte) (Reply, []byte, error) {
	c := &d.cmd
	mark := len(arena)
	arena = append(arena, c.keys[0]...)
	klen := len(arena)
	*req = protocol.Request{StrKey: arena[mark:klen:klen]}
	rp := Reply{NoReply: c.noreply}
	switch c.verb {
	case verbDelete:
		req.Op = protocol.OpDelStr
		return rp, arena, nil
	case verbTouch:
		req.Op, req.TTL = protocol.OpTouchStr, exptimeToTTL(c.exptime, time.Now())
		return rp, arena, nil
	case verbIncr, verbDecr:
		req.Op = protocol.OpIncrStr
		if c.verb == verbDecr {
			req.Op = protocol.OpDecrStr
		}
		req.Delta, req.Prefix = c.delta, flagsPrefixLen
		return rp, arena, nil
	case verbSet:
		req.Op = protocol.OpSetStr
	case verbAdd:
		req.Op = protocol.OpAddStr
	case verbReplace:
		req.Op = protocol.OpReplaceStr
	case verbCas:
		req.Op, req.Ver = protocol.OpCasStr, c.cas
	case verbAppend:
		req.Op, req.Prefix = protocol.OpAppendStr, flagsPrefixLen
	case verbPrepend:
		req.Op, req.Prefix = protocol.OpPrependStr, flagsPrefixLen
	}
	req.TTL = exptimeToTTL(c.exptime, time.Now())
	// APPEND/PREPEND splice raw payload around the existing entry's
	// flags prefix; the other verbs store a freshly framed value.
	if req.Prefix == 0 {
		arena = binary.LittleEndian.AppendUint32(arena, c.flags)
	}
	head := len(arena)
	arena = slices.Grow(arena, c.nbytes)[:head+c.nbytes]
	if _, err := io.ReadFull(br, arena[head:]); err != nil {
		return rp, arena[:mark], err
	}
	// ReadByte (not ReadFull into a stack array) keeps the terminator
	// check allocation-free.
	cr, err := br.ReadByte()
	if err != nil {
		return rp, arena[:mark], err
	}
	lf, err := br.ReadByte()
	if err != nil {
		return rp, arena[:mark], err
	}
	if cr != '\r' || lf != '\n' {
		// The block was consumed and is answered; the stream stays usable.
		d.own.Commands.Inc()
		*req = protocol.Request{Value: replyBadChunk}
		return Reply{}, arena[:mark], nil
	}
	req.Value = arena[klen:]
	return rp, arena, nil
}

// exptimeToTTL maps a memcached exptime to a native millisecond TTL:
// 0 → no expiry, negative → already expired (shortest non-zero TTL),
// ≤30 days → relative seconds, otherwise → absolute unix seconds.
func exptimeToTTL(exp int64, now time.Time) uint32 {
	switch {
	case exp == 0:
		return 0
	case exp < 0:
		return 1
	case exp <= thirtyDays:
		return uint32(exp * 1000)
	default:
		d := exp - now.Unix()
		if d <= 0 {
			return 1
		}
		ms := d * 1000
		if ms > 1<<32-1 {
			ms = 1<<32 - 1
		}
		return uint32(ms)
	}
}

// splitFlags separates a stored value into its flags word and payload.
// Values written by native callers may be shorter than the prefix; they
// read back as flags=0 with the whole value as payload.
func splitFlags(stored []byte) (flags uint32, data []byte) {
	if len(stored) < flagsPrefixLen {
		return 0, stored
	}
	return binary.LittleEndian.Uint32(stored), stored[flagsPrefixLen:]
}

// WriteReply renders the reply to req, as translated by a Decoder, into
// w and counts it in m. Numbers are formatted in w's own free space, so
// nothing is allocated; the caller flushes.
func (m *Metrics) WriteReply(w *bufio.Writer, rp Reply, req *protocol.Request, o Outcome) error {
	switch req.Op {
	case OpNone:
		_, err := w.Write(req.Value)
		return err
	case protocol.OpGetStr, protocol.OpGetsStr:
		if o.Found {
			m.GetHits.Inc()
			flags, data := splitFlags(o.Value)
			b := append(header(w), "VALUE "...)
			b = append(append(b, req.StrKey...), ' ')
			b = append(strconv.AppendUint(b, uint64(flags), 10), ' ')
			b = strconv.AppendUint(b, uint64(len(data)), 10)
			if req.Op == protocol.OpGetsStr {
				b = strconv.AppendUint(append(b, ' '), o.Ver, 10)
			}
			w.Write(append(b, '\r', '\n')) // a failed write sticks to w; the last write below reports it
			w.Write(data)
			if _, err := w.WriteString("\r\n"); err != nil {
				return err
			}
		} else {
			m.GetMisses.Inc()
		}
		if !rp.End {
			return nil
		}
		m.Commands.Inc()
		_, err := w.WriteString("END\r\n")
		return err
	}
	m.Commands.Inc()
	if rp.NoReply {
		return nil
	}
	var line string
	switch {
	case req.Op == protocol.OpSetStr:
		line = "STORED\r\n"
	case req.Op == protocol.OpDelStr && o.Found:
		line = "DELETED\r\n"
	case req.Op == protocol.OpDelStr:
		line = "NOT_FOUND\r\n"
	case o.Status != protocol.RMWStatusStored:
		line = statusLine(o.Status)
	case req.Op == protocol.OpTouchStr:
		line = "TOUCHED\r\n"
	case req.Op == protocol.OpIncrStr, req.Op == protocol.OpDecrStr:
		_, err := w.Write(append(strconv.AppendUint(header(w), o.Num, 10), '\r', '\n'))
		return err
	default:
		line = "STORED\r\n"
	}
	_, err := w.WriteString(line)
	return err
}

// header returns w's free space as an empty slice to format a short line
// into (a Write of the result then copies nothing), making room first if
// the buffer is nearly full.
func header(w *bufio.Writer) []byte {
	if w.Available() < maxHeaderLen {
		w.Flush() // an error sticks to w and fails the Write that follows
	}
	return w.AvailableBuffer()
}

// statusLine is the memcached reply for a read-modify-write that did not
// store.
func statusLine(status uint8) string {
	switch status {
	case protocol.RMWStatusNotStored:
		return "NOT_STORED\r\n"
	case protocol.RMWStatusExists:
		return "EXISTS\r\n"
	case protocol.RMWStatusNotFound:
		return "NOT_FOUND\r\n"
	case protocol.RMWStatusBadValue:
		return "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"
	case protocol.RMWStatusTooLarge:
		return "SERVER_ERROR object too large for cache\r\n"
	case protocol.RMWStatusNoSpace:
		return "SERVER_ERROR out of memory storing object\r\n"
	}
	return "SERVER_ERROR unexpected status\r\n"
}

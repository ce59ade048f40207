// Tokenizer for the memcached text protocol's command lines. It is a set
// of pure functions over one line (no I/O, no allocation beyond the
// caller's key list), which is what makes the parser fuzzable in
// isolation: FuzzParseLine throws torn lines, binary bytes, oversize
// fields and hostile token counts at it and asserts it always returns a
// typed error instead of panicking or misparsing.

package mctext

import (
	"errors"
	"fmt"
)

// Command-line limits, mirroring memcached's.
const (
	// MaxKeyLen is memcached's key bound: 250 bytes, no whitespace or
	// control characters.
	MaxKeyLen = 250
	// MaxLineLen bounds one command line (memcached uses 2048 for
	// storage commands; multi-key gets may run longer, so the reader
	// allows more and the tokenizer itself is length-agnostic).
	MaxLineLen = 8192
	// maxGetKeys bounds the keys of one multi-key get/gets, so a hostile
	// line cannot queue an unbounded number of requests.
	maxGetKeys = 64
)

// Parse errors, each mapping to one wire error string. errProtocol maps
// to "ERROR" (unknown command); the others to "CLIENT_ERROR <reason>".
var (
	errProtocol   = errors.New("unknown command")
	errBadLine    = errors.New("bad command line format")
	errBadKey     = errors.New("bad key")
	errTooManyKey = errors.New("too many keys")
)

// verb identifies one parsed text command.
type verb uint8

const (
	verbUnknown verb = iota
	verbGet
	verbGets
	verbSet
	verbAdd
	verbReplace
	verbAppend
	verbPrepend
	verbCas
	verbIncr
	verbDecr
	verbDelete
	verbTouch
	verbStats
	verbVersion
	verbQuit
)

// textCmd is one parsed command line. Key/Keys alias the input line — the
// caller must copy anything it needs past the next read.
type textCmd struct {
	verb    verb
	keys    [][]byte // get/gets: 1..maxGetKeys keys; others: keys[:1]
	flags   uint32   // storage commands
	exptime int64    // storage + touch; memcached seconds semantics
	nbytes  int      // storage commands: payload length
	cas     uint64   // cas
	delta   uint64   // incr/decr
	noreply bool
}

// splitFields tokenizes line on single spaces in place, appending
// subslices to dst. Consecutive spaces produce empty fields, which the
// per-command validators reject — memcached is equally strict.
func splitFields(line []byte, dst [][]byte) [][]byte {
	start := 0
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == ' ' {
			dst = append(dst, line[start:i])
			start = i + 1
		}
	}
	return dst
}

// parseUint parses a decimal uint64 field (1–20 digits, wraps like
// memcached's arithmetic would reject — overflow here is an error since
// these are protocol fields, not stored values).
func parseUint(b []byte) (uint64, error) {
	if len(b) == 0 || len(b) > 20 {
		return 0, errBadLine
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, errBadLine
		}
		d := uint64(c - '0')
		if n > (^uint64(0)-d)/10 {
			return 0, errBadLine
		}
		n = n*10 + d
	}
	return n, nil
}

// parseInt parses a decimal int64 field with an optional leading minus
// (exptime may be negative: "expire immediately").
func parseInt(b []byte) (int64, error) {
	neg := false
	if len(b) > 0 && b[0] == '-' {
		neg = true
		b = b[1:]
	}
	n, err := parseUint(b)
	if err != nil {
		return 0, err
	}
	if n > 1<<63-1 {
		return 0, errBadLine
	}
	if neg {
		return -int64(n), nil
	}
	return int64(n), nil
}

// validKey enforces memcached's key rules: 1–250 bytes, no whitespace or
// control characters (the tokenizer already guarantees no ' ').
func validKey(k []byte) bool {
	if len(k) == 0 || len(k) > MaxKeyLen {
		return false
	}
	for _, c := range k {
		if c <= ' ' || c == 127 {
			return false
		}
	}
	return true
}

// parseLine parses one command line (CRLF already stripped) into cmd.
// fields is a caller-recycled scratch slice. On error cmd is undefined
// and the error is one of the typed parse errors above (wrapped with
// context), never a panic — the fuzz harness enforces exactly that.
func parseLine(line []byte, cmd *textCmd, fields [][]byte) ([][]byte, error) {
	fields = splitFields(line, fields[:0])
	*cmd = textCmd{keys: cmd.keys[:0]}
	name := fields[0]
	rest := fields[1:]
	switch string(name) {
	case "get", "gets":
		cmd.verb = verbGet
		if string(name) == "gets" {
			cmd.verb = verbGets
		}
		if len(rest) == 0 {
			return fields, fmt.Errorf("%w: get needs a key", errBadLine)
		}
		if len(rest) > maxGetKeys {
			return fields, fmt.Errorf("%w: %d keys exceeds %d", errTooManyKey, len(rest), maxGetKeys)
		}
		for _, k := range rest {
			if !validKey(k) {
				return fields, fmt.Errorf("%w: %q", errBadKey, k)
			}
			cmd.keys = append(cmd.keys, k)
		}
		return fields, nil

	case "set", "add", "replace", "append", "prepend", "cas":
		switch string(name) {
		case "set":
			cmd.verb = verbSet
		case "add":
			cmd.verb = verbAdd
		case "replace":
			cmd.verb = verbReplace
		case "append":
			cmd.verb = verbAppend
		case "prepend":
			cmd.verb = verbPrepend
		case "cas":
			cmd.verb = verbCas
		}
		want := 4 // key flags exptime bytes
		if cmd.verb == verbCas {
			want = 5 // + cas unique
		}
		if len(rest) < want || len(rest) > want+1 {
			return fields, fmt.Errorf("%w: %s takes %d fields", errBadLine, name, want)
		}
		if len(rest) == want+1 {
			if string(rest[want]) != "noreply" {
				return fields, fmt.Errorf("%w: trailing %q", errBadLine, rest[want])
			}
			cmd.noreply = true
		}
		if !validKey(rest[0]) {
			return fields, fmt.Errorf("%w: %q", errBadKey, rest[0])
		}
		cmd.keys = append(cmd.keys, rest[0])
		flags, err := parseUint(rest[1])
		if err != nil || flags > 1<<32-1 {
			return fields, fmt.Errorf("%w: flags", errBadLine)
		}
		cmd.flags = uint32(flags)
		if cmd.exptime, err = parseInt(rest[2]); err != nil {
			return fields, fmt.Errorf("%w: exptime", errBadLine)
		}
		nbytes, err := parseUint(rest[3])
		if err != nil || nbytes > maxValueLen {
			return fields, fmt.Errorf("%w: bytes", errBadLine)
		}
		cmd.nbytes = int(nbytes)
		if cmd.verb == verbCas {
			if cmd.cas, err = parseUint(rest[4]); err != nil {
				return fields, fmt.Errorf("%w: cas unique", errBadLine)
			}
		}
		return fields, nil

	case "incr", "decr":
		cmd.verb = verbIncr
		if string(name) == "decr" {
			cmd.verb = verbDecr
		}
		if len(rest) < 2 || len(rest) > 3 {
			return fields, fmt.Errorf("%w: %s takes 2 fields", errBadLine, name)
		}
		if len(rest) == 3 {
			if string(rest[2]) != "noreply" {
				return fields, fmt.Errorf("%w: trailing %q", errBadLine, rest[2])
			}
			cmd.noreply = true
		}
		if !validKey(rest[0]) {
			return fields, fmt.Errorf("%w: %q", errBadKey, rest[0])
		}
		cmd.keys = append(cmd.keys, rest[0])
		var err error
		if cmd.delta, err = parseUint(rest[1]); err != nil {
			return fields, fmt.Errorf("%w: delta", errBadLine)
		}
		return fields, nil

	case "delete":
		cmd.verb = verbDelete
		if len(rest) < 1 || len(rest) > 2 {
			return fields, fmt.Errorf("%w: delete takes 1 field", errBadLine)
		}
		if len(rest) == 2 {
			if string(rest[1]) != "noreply" {
				return fields, fmt.Errorf("%w: trailing %q", errBadLine, rest[1])
			}
			cmd.noreply = true
		}
		if !validKey(rest[0]) {
			return fields, fmt.Errorf("%w: %q", errBadKey, rest[0])
		}
		cmd.keys = append(cmd.keys, rest[0])
		return fields, nil

	case "touch":
		cmd.verb = verbTouch
		if len(rest) < 2 || len(rest) > 3 {
			return fields, fmt.Errorf("%w: touch takes 2 fields", errBadLine)
		}
		if len(rest) == 3 {
			if string(rest[2]) != "noreply" {
				return fields, fmt.Errorf("%w: trailing %q", errBadLine, rest[2])
			}
			cmd.noreply = true
		}
		if !validKey(rest[0]) {
			return fields, fmt.Errorf("%w: %q", errBadKey, rest[0])
		}
		cmd.keys = append(cmd.keys, rest[0])
		var err error
		if cmd.exptime, err = parseInt(rest[1]); err != nil {
			return fields, fmt.Errorf("%w: exptime", errBadLine)
		}
		return fields, nil

	case "stats":
		cmd.verb = verbStats
		return fields, nil
	case "version":
		cmd.verb = verbVersion
		return fields, nil
	case "quit":
		cmd.verb = verbQuit
		return fields, nil
	}
	return fields, fmt.Errorf("%w: %q", errProtocol, name)
}

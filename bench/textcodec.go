package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// The memcached text codec the mc_text workload drives cpserver
// -memcached with: pipelined "get <key>" and "set <key> 0 0 <n>", one key
// per command, keys "k<decimal>". It lives here so the benchmark does not
// compile against internal/mcclient or internal/mctext.

func appendTextKey(dst []byte, key uint64) []byte {
	return strconv.AppendUint(append(dst, 'k'), key, 10)
}

func appendTextGet(dst []byte, key uint64) []byte {
	dst = append(dst, "get "...)
	dst = appendTextKey(dst, key)
	return append(dst, '\r', '\n')
}

func appendTextSet(dst []byte, key uint64, val []byte) []byte {
	dst = append(dst, "set "...)
	dst = appendTextKey(dst, key)
	dst = append(dst, " 0 0 "...)
	dst = strconv.AppendInt(dst, int64(len(val)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, val...)
	return append(dst, '\r', '\n')
}

var (
	textEnd    = []byte("END\r\n")
	textStored = []byte("STORED\r\n")
	textValue  = []byte("VALUE ")
)

// readTextGet parses the reply to "get <key>": a miss is "END"; a hit is
// "VALUE <key> <flags> <n>", n data bytes, CRLF, "END". The value is
// appended to dst. A reply naming another key is an error.
func readTextGet(r *bufio.Reader, key uint64, dst []byte) (out []byte, hit bool, err error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return dst, false, err
	}
	if bytes.Equal(line, textEnd) {
		return dst, false, nil
	}
	if !bytes.HasPrefix(line, textValue) || !bytes.HasSuffix(line, []byte("\r\n")) {
		return dst, false, fmt.Errorf("text: unexpected reply %q", line)
	}
	// "<key> <flags> <n>": cut by hand, bytes.Fields would allocate per reply.
	rest := line[len(textValue) : len(line)-2]
	sp1 := bytes.IndexByte(rest, ' ')
	sp2 := bytes.LastIndexByte(rest, ' ')
	if sp1 < 0 || sp2 == sp1 {
		return dst, false, fmt.Errorf("text: malformed VALUE line %q", line)
	}
	var want [24]byte
	if !bytes.Equal(rest[:sp1], appendTextKey(want[:0], key)) {
		return dst, false, fmt.Errorf("text: reply for key %q, asked k%d", rest[:sp1], key)
	}
	n := 0
	for _, c := range rest[sp2+1:] {
		if c < '0' || c > '9' || n > 1<<24 {
			return dst, false, fmt.Errorf("text: bad length in %q", line)
		}
		n = n*10 + int(c-'0')
	}
	if sp2+1 == len(rest) {
		return dst, false, fmt.Errorf("text: missing length in %q", line)
	}
	start := len(dst)
	dst = append(dst, make([]byte, n+2)...)
	if _, err := io.ReadFull(r, dst[start:]); err != nil {
		return dst[:start], false, err
	}
	if dst[start+n] != '\r' || dst[start+n+1] != '\n' {
		return dst[:start], false, fmt.Errorf("text: data block of k%d not CRLF-terminated", key)
	}
	dst = dst[:start+n]
	line, err = r.ReadSlice('\n')
	if err != nil {
		return dst, false, err
	}
	if !bytes.Equal(line, textEnd) {
		return dst, false, fmt.Errorf("text: expected END, got %q", line)
	}
	return dst, true, nil
}

// readTextSet parses the reply to a "set": anything but STORED is an error.
func readTextSet(r *bufio.Reader) error {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return err
	}
	if !bytes.Equal(line, textStored) {
		return fmt.Errorf("text: set answered %q", line)
	}
	return nil
}

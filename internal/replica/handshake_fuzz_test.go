package replica

import (
	"bytes"
	"errors"
	"testing"

	"cphash/internal/persist"
)

// fuzzLineage and fuzzStreams are the source a fuzzed hello is judged
// against; fuzzHolds is its segment files' verdict, true for positions
// in odd segments.
const (
	fuzzLineage = 7
	fuzzStreams = 2
)

func fuzzHolds(_ int, pos persist.WALPos) bool { return pos.Seg%2 == 1 }

// FuzzHello feeds arbitrary bytes to the handshake decoders. Neither may
// panic or fail other than by errShort or errMagic; a hello they accept
// must re-encode to exactly the bytes it was read from, and every proper
// prefix of it must read as cut short, since the source reads a hello in
// pieces until it decodes; the resume verdict on it must be granted
// exactly when its lineage is the source's, it carries one position per
// source stream, and the files hold each. A reply they accept must
// survive re-encoding. The committed corpus holds a valid hello, a
// truncated one, one of CPREPL04, one with a 255-byte name, and one of
// the source's lineage whose vector has three positions to the source's
// two.
func FuzzHello(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h, n, err := decodeHello(data)
		switch {
		case errors.Is(err, errShort) || errors.Is(err, errMagic):
		case err != nil:
			t.Fatalf("decodeHello error %v", err)
		default:
			if n > len(data) {
				t.Fatalf("decodeHello consumed %d of %d bytes", n, len(data))
			}
			if enc := appendHello(nil, h.name, &h.slots, h.lineage, h.pos); !bytes.Equal(enc, data[:n]) {
				t.Fatalf("hello re-encodes to %x, read %x", enc, data[:n])
			}
			for k := 0; k < n; k++ {
				if _, _, err := decodeHello(data[:k]); !errors.Is(err, errShort) {
					t.Fatalf("a %d-byte prefix of a %d-byte hello decodes with %v", k, n, err)
				}
			}
			want := h.lineage == fuzzLineage && len(h.pos) == fuzzStreams
			for st, p := range h.pos {
				want = want && fuzzHolds(st, p)
			}
			if got := resumable(&h, fuzzLineage, fuzzStreams, fuzzHolds); got != want {
				t.Fatalf("resume verdict %v on lineage %d, positions %v; want %v", got, h.lineage, h.pos, want)
			}
		}
		r, err := decodeReply(data)
		switch {
		case errors.Is(err, errShort) || errors.Is(err, errMagic):
		case err != nil:
			t.Fatalf("decodeReply error %v", err)
		default:
			if r2, err := decodeReply(appendReply(nil, r)); err != nil || r2 != r {
				t.Fatalf("reply %+v re-encodes and decodes to %+v, %v", r, r2, err)
			}
		}
	})
}

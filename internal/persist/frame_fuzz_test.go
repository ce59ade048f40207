package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzFrames feeds arbitrary bytes to the frame decoder that WAL replay
// and the replication follower share. It must never panic, the frames
// it accepts one by one must re-encode to exactly the bytes it read, and
// DecodeFrames must accept the input iff those frames cover all of it.
// The committed corpus holds valid frames, a torn tail, a bad CRC and a
// length over maxRecordLen.
func FuzzFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var enc []byte
		var want []Record
		rest := data
		for len(rest) > 0 {
			r, n, err := decodeFrame(rest)
			if err != nil {
				if !errors.Is(err, errBadFrame) {
					t.Fatalf("decodeFrame error %v is not errBadFrame", err)
				}
				break
			}
			if n < frameHeaderLen+recHeaderLen || n > len(rest) {
				t.Fatalf("decodeFrame consumed %d of %d bytes", n, len(rest))
			}
			enc = AppendFrame(enc, r)
			want = append(want, r)
			rest = rest[n:]
		}
		if accepted := data[:len(data)-len(rest)]; !bytes.Equal(enc, accepted) {
			t.Fatalf("accepted frames re-encode to %x, read %x", enc, accepted)
		}
		recs, err := DecodeFrames(nil, data)
		if (err == nil) != (len(rest) == 0) {
			t.Fatalf("DecodeFrames err = %v with %d undecodable bytes", err, len(rest))
		}
		if err == nil && len(recs) != len(want) {
			t.Fatalf("DecodeFrames gave %d records, frame by frame %d", len(recs), len(want))
		}
	})
}

// TestDecodeFrameRejects pins the verdict on each kind of damage the
// fuzz corpus seeds: a truncated frame, a flipped payload byte, and a
// length field out of range all fail with errBadFrame.
func TestDecodeFrameRejects(t *testing.T) {
	good := AppendFrame(nil, Record{Op: OpSet, Key: 7, ExpireAt: 9, Ver: 3, Value: []byte("value")})
	if r, n, err := decodeFrame(good); err != nil || n != len(good) || r.Key != 7 || string(r.Value) != "value" {
		t.Fatalf("intact frame: %+v, %d, %v", r, n, err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	long := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(long, maxRecordLen+1)
	short := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(short, recHeaderLen-1)
	for name, b := range map[string][]byte{
		"torn":      good[:len(good)-1],
		"header":    good[:frameHeaderLen-1],
		"bad crc":   flipped,
		"too long":  long,
		"too short": short,
	} {
		if _, _, err := decodeFrame(b); !errors.Is(err, errBadFrame) {
			t.Errorf("%s: decodeFrame err = %v, want errBadFrame", name, err)
		}
	}
}

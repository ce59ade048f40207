package persist

import (
	"bufio"
	"bytes"
	"errors"
	"io/fs"
	"sync"
	"testing"
	"time"

	"cphash/internal/partition"
)

// tailRec is one record as a TailSink saw it.
type tailRec struct {
	frame []byte
	pos   WALPos
}

// recordingSink keeps a copy of every record it is handed, per stream.
type recordingSink struct {
	mu  sync.Mutex
	got map[int][]tailRec
}

func (r *recordingSink) TailRecord(frame []byte, stream int, pos WALPos) {
	r.mu.Lock()
	r.got[stream] = append(r.got[stream], tailRec{append([]byte(nil), frame...), pos})
	r.mu.Unlock()
}

// TestReadStreamMatchesTail writes across many small segments of two
// streams, with the newest frames left in an interval-synced writer, and
// reads each stream back from positions inside it: the reader must
// return exactly the frames and positions the tail sink saw after the
// start position, up to the flushed one. Holds must accept every seen
// position and refuse one past its segment's end; after a snapshot
// truncates the early segments, both refuse them.
func TestReadStreamMatchesTail(t *testing.T) {
	p := openStarted(t, Config{Dir: t.TempDir(), Policy: SyncInterval, SyncInterval: 1 << 40, Streams: 2, MaxSegment: 4 << 10})
	defer p.Close()
	p.SetSource(func(uint64, int, []partition.ScanEntry, []byte) ([]partition.ScanEntry, []byte, uint64, bool, error) {
		return nil, nil, 0, true, nil
	})
	sink := &recordingSink{got: map[int][]tailRec{}}
	p.SetTailSink(sink)
	if _, err := p.RollAll(); err != nil {
		t.Fatal(err)
	}
	apps := []*Appender{p.Appender(0), p.Appender(1), p.Appender(2), p.Appender(3)}
	val := make([]byte, 100)
	for i := 0; i < 1000; i++ {
		val[0] = byte(i)
		apps[i%len(apps)].Set(uint64(i), val[:i%100], 0, uint64(i))
	}
	// Every record drained, not flushed: FlushAll must write the tail.
	for n := 0; n < 1000; time.Sleep(time.Millisecond) {
		sink.mu.Lock()
		n = len(sink.got[0]) + len(sink.got[1])
		sink.mu.Unlock()
	}
	to, err := p.FlushAll()
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(nil, 4096)
	for s := 0; s < p.Streams(); s++ {
		sink.mu.Lock()
		seen := sink.got[s]
		sink.mu.Unlock()
		// The flushed position is the last record's, or the start of the
		// segment a roll opened right after it.
		if len(seen) < 3 {
			t.Fatalf("stream %d: the sink saw %d records", s, len(seen))
		}
		if last := seen[len(seen)-1].pos; to[s] != last && (to[s].Before(last) || to[s] != SegmentStart(to[s].Seg)) {
			t.Fatalf("stream %d: the last record is at %v, flushed to %v", s, last, to[s])
		}
		for _, start := range []int{0, 1, len(seen) / 3, len(seen) - 2} {
			var got []tailRec
			err := p.ReadStream(br, s, seen[start].pos, to[s], func(frame []byte, pos WALPos) error {
				got = append(got, tailRec{append([]byte(nil), frame...), pos})
				return nil
			})
			if err != nil {
				t.Fatalf("stream %d from record %d: %v", s, start, err)
			}
			want := seen[start+1:]
			if len(got) != len(want) {
				t.Fatalf("stream %d from record %d: read %d records, the sink saw %d after it", s, start, len(got), len(want))
			}
			for i := range want {
				if got[i].pos != want[i].pos || !bytes.Equal(got[i].frame, want[i].frame) {
					t.Fatalf("stream %d from record %d: record %d read at %v, seen at %v", s, start, i, got[i].pos, want[i].pos)
				}
			}
		}
		for _, r := range seen {
			if !p.Holds(s, r.pos) {
				t.Fatalf("stream %d: Holds refuses seen position %v", s, r.pos)
			}
		}
		// A sealed segment's end is the last position in it; one byte
		// further is a record the file never held.
		for i := 0; i+1 < len(seen); i++ {
			if seen[i].pos.Seg != seen[i+1].pos.Seg {
				past := WALPos{Seg: seen[i].pos.Seg, Off: seen[i].pos.Off + 1}
				if p.Holds(s, past) {
					t.Fatalf("stream %d: Holds accepts %v, past its sealed segment", s, past)
				}
				break
			}
		}
	}

	first := sink.got[0][0].pos
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if p.Holds(0, first) {
		t.Fatalf("Holds accepts %v after a snapshot truncated its segment", first)
	}
	err = p.ReadStream(br, 0, first, to[0], func([]byte, WALPos) error { return nil })
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ReadStream from a truncated segment: %v, want fs.ErrNotExist", err)
	}
}

// TestLineageLivesWithTheDirectory: reopening a directory keeps its
// lineage; a fresh directory gets another.
func TestLineageLivesWithTheDirectory(t *testing.T) {
	dir := t.TempDir()
	lineage := func(dir string) uint64 {
		p, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if p.Lineage() == 0 {
			t.Fatal("zero lineage")
		}
		return p.Lineage()
	}
	a := lineage(dir)
	if b := lineage(dir); b != a {
		t.Fatalf("reopened directory has lineage %x, was %x", b, a)
	}
	if c := lineage(t.TempDir()); c == a {
		t.Fatalf("a fresh directory shares lineage %x", a)
	}
}

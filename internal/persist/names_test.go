package persist

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestFileNames checks that scanDir's parsers invert the names walName and
// snapName make, and skip every other name.
func TestFileNames(t *testing.T) {
	for _, c := range []struct {
		stream int
		seq    uint64
	}{{0, 0}, {1, 1}, {7, 0xabcdef}, {999, math.MaxUint64}} {
		name := walName(c.stream, c.seq)
		if st, seq, ok := parseWalName(name); !ok || st != c.stream || seq != c.seq {
			t.Errorf("parseWalName(%q) = %d, %#x, %v", name, st, seq, ok)
		}
		if _, ok := parseSnapName(name); ok {
			t.Errorf("parseSnapName took segment name %q", name)
		}
	}
	for _, gen := range []uint64{0, 1, 0x0123456789abcdef, math.MaxUint64} {
		name := snapName(gen)
		if got, ok := parseSnapName(name); !ok || got != gen {
			t.Errorf("parseSnapName(%q) = %#x, %v", name, got, ok)
		}
		if _, _, ok := parseWalName(name); ok {
			t.Errorf("parseWalName took snapshot name %q", name)
		}
	}
	for _, name := range []string{
		"", ".wal", ".snap", "w001-0000000000000001", "s0000000000000001",
		"w1-0000000000000001.wal",      // stream not three digits
		"w1000-0000000000000001.wal",   // nor four
		"w001-001.wal",                 // short sequence
		"w001-00000000000000001.wal",   // long sequence
		"w001_0000000000000001.wal",    // wrong separator
		"x001-0000000000000001.wal",    // wrong prefix
		"w+01-0000000000000001.wal",    // signed stream
		"w001-000000000000000g.wal",    // not hex
		"w001-0000000000000001.wal~",   // editor backup
		"w001-0000000000000001.snap",   // crossed suffix
		"s0000000000000001.wal",        // crossed suffix
		"s000000000000001.snap",        // short generation
		"s00000000000000001.snap",      // long generation
		"s000000000000000x.snap",       // not hex
		"s0000000000000001.tmp",        // an interrupted snapshot
		"S0000000000000001.snap",       // wrong prefix
		"s-000000000000001.snap",       // signed generation
		"w001-0000000000000001.wal.gz", // compressed copy
	} {
		if st, seq, ok := parseWalName(name); ok {
			t.Errorf("parseWalName(%q) = %d, %#x: want it skipped", name, st, seq)
		}
		if gen, ok := parseSnapName(name); ok {
			t.Errorf("parseSnapName(%q) = %#x: want it skipped", name, gen)
		}
	}

	dir := t.TempDir()
	for _, name := range []string{walName(2, 9), walName(1, 10), snapName(3), "notes.wal", "s0000000000000002.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].seq != 9 || segs[0].stream != 2 || segs[1].seq != 10 || segs[1].stream != 1 {
		t.Errorf("segments %+v, want w002 seq 9 then w001 seq 10", segs)
	}
	if len(snaps) != 1 || snaps[0].gen != 3 {
		t.Errorf("snapshots %+v, want generation 3", snaps)
	}
}

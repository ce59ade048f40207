package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// Snapshot on-disk format — a statichash-style compact immutable image:
// one dense pass over the table's live entries, written to a temp file
// and atomically renamed, never modified afterwards. Loading is a single
// sequential read with no per-entry seeks.
//
//	header:  magic "CPSNAP02" (8) | gen (8 LE) | nstreams (4 LE)
//	         then nstreams × { stream (4 LE) | minSeq (8 LE) }
//	records: key (8 LE) | expireAt ns (8 LE) | ver (8 LE) | vlen (4 LE) | value
//	footer:  count (8 LE) | crc32c (4 LE) | magic "SNPE" (4)
//
// The per-stream minSeq table names the first WAL segment whose records
// are NOT covered by the snapshot: recovery loads the snapshot and then
// replays segments with seq ≥ minSeq (per stream); segments below it are
// garbage and deleted. The CRC covers header + records, so a torn or
// bit-rotted snapshot is rejected whole and recovery falls back to an
// older one (or to pure WAL replay).
const (
	snapMagic    = "CPSNAP02"
	snapEnd      = "SNPE"
	snapSuffix   = ".snap"
	snapFooter   = 8 + 4 + 4
	snapScanMax  = 1024 // entries per Source call
	snapRecFixed = 8 + 8 + 8 + 4
)

func snapName(gen uint64) string {
	return fmt.Sprintf("s%016x%s", gen, snapSuffix)
}

// parseSnapName is snapName's inverse for the names it makes; ok is false
// for any other name.
func parseSnapName(name string) (gen uint64, ok bool) {
	const n = len("s0000000000000000") // then snapSuffix
	if len(name) != n+len(snapSuffix) || name[0] != 's' || name[n:] != snapSuffix {
		return 0, false
	}
	gen, err := strconv.ParseUint(name[1:n], 16, 64)
	return gen, err == nil
}

// doSnapshot runs one snapshot cycle: roll every stream, scan the table
// through the source, write + commit the snapshot, then delete the
// covered WAL segments and older snapshots. Runs on the snapshotter
// goroutine only.
func (p *Pipeline) doSnapshot() error {
	srcp := p.source.Load()
	if srcp == nil {
		return fmt.Errorf("persist: no snapshot source configured")
	}
	src := *srcp

	// Rolling first is the correctness pivot: every mutation already in a
	// sealed (pre-roll) segment was applied to the table before the roll,
	// so the scan below — which starts after — observes it. Sealed
	// segments are therefore fully covered by the snapshot and deletable
	// once it commits; everything newer stays and is replayed on top.
	minSeqs := make(map[int]uint64, len(p.streams))
	for _, s := range p.streams {
		seq, err := s.roll()
		if err != nil {
			return err
		}
		minSeqs[s.id] = seq
	}

	gen := p.nextGen.Add(1) - 1
	tmp := filepath.Join(p.cfg.Dir, fmt.Sprintf("s%016x.tmp", gen))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename commits

	crc := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(f, 256<<10)
	w := io.MultiWriter(bw, crc)

	var hdr [8 + 8 + 4]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], gen)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(len(p.streams)))
	if _, err := w.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	var se [4 + 8]byte
	for _, s := range p.streams {
		binary.LittleEndian.PutUint32(se[0:4], uint32(s.id))
		binary.LittleEndian.PutUint64(se[4:12], minSeqs[s.id])
		if _, err := w.Write(se[:]); err != nil {
			f.Close()
			return fmt.Errorf("persist: %w", err)
		}
	}

	var count, bytes int64
	var rec [snapRecFixed]byte
	cursor := uint64(0)
	for {
		entries, next, done, err := src(cursor, snapScanMax)
		if err != nil {
			f.Close()
			return fmt.Errorf("persist: snapshot scan: %w", err)
		}
		now := p.cfg.Clock()
		for _, e := range entries {
			exp := int64(0)
			if e.TTL > 0 {
				exp = now + int64(e.TTL)
			}
			binary.LittleEndian.PutUint64(rec[0:8], e.Key)
			binary.LittleEndian.PutUint64(rec[8:16], uint64(exp))
			binary.LittleEndian.PutUint64(rec[16:24], e.Version)
			binary.LittleEndian.PutUint32(rec[24:28], uint32(len(e.Value)))
			if _, err := w.Write(rec[:]); err != nil {
				f.Close()
				return fmt.Errorf("persist: %w", err)
			}
			if _, err := w.Write(e.Value); err != nil {
				f.Close()
				return fmt.Errorf("persist: %w", err)
			}
			count++
			bytes += snapRecFixed + int64(len(e.Value))
		}
		if done {
			break
		}
		cursor = next
	}

	var foot [snapFooter]byte
	binary.LittleEndian.PutUint64(foot[0:8], uint64(count))
	binary.LittleEndian.PutUint32(foot[8:12], crc.Sum32())
	copy(foot[12:16], snapEnd)
	if _, err := bw.Write(foot[:]); err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	final := filepath.Join(p.cfg.Dir, snapName(gen))
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	syncDir(p.cfg.Dir)

	p.snapshots.Add(1)
	p.snapEntries.Store(count)
	p.snapBytes.Store(bytes)
	p.snapWhen.Store(p.cfg.Clock())
	p.truncateCovered(gen, minSeqs)
	return nil
}

// truncateCovered deletes snapshots older than gen and WAL segments the
// gen snapshot covers: per stream, seq < that stream's roll watermark;
// for segments of streams this pipeline does not run (a previous run
// used a different Streams config), seq older than every watermark —
// segment seqs are globally ordered, so such segments predate the roll
// barrier and are fully covered. Failures are ignored — stale files are
// re-collected by the next snapshot, and replaying a covered segment is
// harmless (the log's last-writer-wins replay converges to the same
// state), just slower.
func (p *Pipeline) truncateCovered(gen uint64, minSeqs map[int]uint64) {
	segs, snaps, err := scanDir(p.cfg.Dir)
	if err != nil {
		return
	}
	for _, s := range snaps {
		if s.gen < gen {
			os.Remove(s.path)
		}
	}
	minOverall := minSeqOverall(minSeqs)
	for _, s := range segs {
		if min, ok := minSeqs[s.stream]; ok {
			if s.seq < min {
				os.Remove(s.path)
			}
		} else if s.seq < minOverall {
			os.Remove(s.path)
		}
	}
}

// syncDir fsyncs a directory so a just-renamed file survives a crash;
// best-effort (not all platforms support it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// readSnapshot validates path and, if apply is non-nil, streams its
// records into apply, reading through br (reset onto the file; see
// newReplayReader). Returns the record count and the per-stream minSeq
// replay table. Callers validate with apply == nil first, then re-read
// to apply — a snapshot is rejected whole on any inconsistency.
func readSnapshot(br *bufio.Reader, path string, apply func(key uint64, expireAt int64, ver uint64, value []byte) error) (count int64, minSeqs map[int]uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, nil, err
	}
	crc := crc32.New(castagnoli)
	br.Reset(f)

	var hdr [8 + 8 + 4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("truncated header")
	}
	crc.Write(hdr[:])
	if string(hdr[:8]) != snapMagic {
		return 0, nil, fmt.Errorf("bad magic")
	}
	nstreams := binary.LittleEndian.Uint32(hdr[16:20])
	if nstreams > 1<<16 {
		return 0, nil, fmt.Errorf("implausible stream count %d", nstreams)
	}
	minSeqs = make(map[int]uint64, nstreams)
	var se [4 + 8]byte
	for i := uint32(0); i < nstreams; i++ {
		if _, err := io.ReadFull(br, se[:]); err != nil {
			return 0, nil, fmt.Errorf("truncated stream table")
		}
		crc.Write(se[:])
		minSeqs[int(binary.LittleEndian.Uint32(se[0:4]))] = binary.LittleEndian.Uint64(se[4:12])
	}

	recEnd := fi.Size() - snapFooter
	pos := int64(len(hdr)) + int64(nstreams)*int64(len(se))
	if recEnd < pos {
		return 0, nil, fmt.Errorf("truncated records")
	}
	var rec [snapRecFixed]byte
	value := make([]byte, 0, 4096)
	for pos < recEnd {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return 0, nil, fmt.Errorf("truncated record header")
		}
		crc.Write(rec[:])
		vlen := binary.LittleEndian.Uint32(rec[24:28])
		if vlen > maxRecordLen || pos+snapRecFixed+int64(vlen) > recEnd {
			return 0, nil, fmt.Errorf("corrupt record length")
		}
		if cap(value) < int(vlen) {
			value = make([]byte, vlen)
		}
		value = value[:vlen]
		if _, err := io.ReadFull(br, value); err != nil {
			return 0, nil, fmt.Errorf("truncated value")
		}
		crc.Write(value)
		if apply != nil {
			key := binary.LittleEndian.Uint64(rec[0:8])
			exp := int64(binary.LittleEndian.Uint64(rec[8:16]))
			ver := binary.LittleEndian.Uint64(rec[16:24])
			if err := apply(key, exp, ver, value); err != nil {
				return count, minSeqs, err
			}
		}
		count++
		pos += snapRecFixed + int64(vlen)
	}

	var foot [snapFooter]byte
	if _, err := io.ReadFull(br, foot[:]); err != nil {
		return 0, nil, fmt.Errorf("truncated footer")
	}
	if string(foot[12:16]) != snapEnd {
		return 0, nil, fmt.Errorf("bad footer magic")
	}
	if int64(binary.LittleEndian.Uint64(foot[0:8])) != count {
		return 0, nil, fmt.Errorf("count mismatch")
	}
	if binary.LittleEndian.Uint32(foot[8:12]) != crc.Sum32() {
		return 0, nil, fmt.Errorf("checksum mismatch")
	}
	return count, minSeqs, nil
}

package persist

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
)

// A data directory's lineage names its WAL history: a random nonzero id
// written once, when the directory is first opened, and kept for as long
// as the directory is. A WAL position (stream, segment seq, offset) means
// the same records under one lineage across restarts, since a restart
// appends fresh segments and never rewrites old ones; under another
// lineage (a fresh or wiped directory) it means nothing. Replication
// uses it to decide whether a follower's position can be caught up from
// this directory's segments.
//
//	file "LINEAGE": magic "CPLIN001" (8) | id (8 LE)
const (
	lineageName  = "LINEAGE"
	lineageMagic = "CPLIN001"
	lineageLen   = len(lineageMagic) + 8
)

// Lineage returns the data directory's lineage id (nonzero).
func (p *Pipeline) Lineage() uint64 { return p.lineage }

// loadLineage reads dir's lineage, writing a fresh one when the file is
// missing or unreadable (a directory from before lineages existed, or a
// torn write of the file itself). The fresh id is written to a temp file
// and renamed into place, so a crash leaves either no file or a whole one.
func loadLineage(dir string) (uint64, error) {
	path := filepath.Join(dir, lineageName)
	if b, err := os.ReadFile(path); err == nil && len(b) == lineageLen && string(b[:len(lineageMagic)]) == lineageMagic {
		if id := binary.LittleEndian.Uint64(b[len(lineageMagic):]); id != 0 {
			return id, nil
		}
	}
	var id uint64
	for id == 0 {
		id = rand.Uint64()
	}
	b := binary.LittleEndian.AppendUint64([]byte(lineageMagic), id)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("persist: %w", err)
	}
	syncDir(dir)
	return id, nil
}

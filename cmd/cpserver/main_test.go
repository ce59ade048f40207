package main

import (
	"strings"
	"testing"

	"cphash/internal/partition"
)

// TestMemcacheBackendRejectsTextListener pins a capability this program
// gave up when memcached text stopped being a proxy: text is a codec of
// kvserver's connection path, and the memcache baseline runs its own
// accept loop, so -backend memcache with -memcached fails at startup
// instead of silently opening no text listener. (Rebuilding the baseline
// on kvserver — ROADMAP item 2 — brings it back.)
func TestMemcacheBackendRejectsTextListener(t *testing.T) {
	old := *backend
	*backend = "memcache"
	defer func() { *backend = old }()

	in, err := startInstance("127.0.0.1:0", "127.0.0.1:0", "", 1<<20, partition.EvictLRU)
	if err == nil {
		in.close()
		t.Fatal("memcache backend accepted a -memcached listen address")
	}
	if !strings.Contains(err.Error(), "-memcached is not supported by the memcache backend") {
		t.Fatalf("unexpected error: %v", err)
	}

	// Without the text address the baseline still starts.
	in, err = startInstance("127.0.0.1:0", "", "", 1<<20, partition.EvictLRU)
	if err != nil {
		t.Fatal(err)
	}
	in.close()
}

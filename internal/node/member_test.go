package node

import (
	"bytes"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"cphash/internal/kvserver"
	"cphash/internal/mcclient"
	"cphash/internal/obs"
	"cphash/internal/partition"
	"cphash/internal/persist"
	"cphash/internal/protocol"
)

// memberConfig is a one-member configuration of the given backend.
func memberConfig(backend, dir string) Config {
	return Config{
		Backend:  backend,
		Capacity: 1 << 20,
		Workers:  2,
		Eviction: partition.EvictLRU,
		Addr:     "127.0.0.1:0",
		TextAddr: "127.0.0.1:0",
		Replicas: 1,
		Persist:  persist.Config{Dir: dir},
	}
}

// nativeGet reads one numeric key over the instance's native listener,
// after an optional SET of the same key on the same connection.
func nativeGet(t *testing.T, addr string, key uint64, set []byte) (string, bool) {
	t.Helper()
	w, r, conn, err := kvserver.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if set != nil {
		protocol.WriteRequest(w, protocol.Request{Op: protocol.OpInsert, Key: key, Value: set})
	}
	protocol.WriteRequest(w, protocol.Request{Op: protocol.OpLookup, Key: key})
	w.Flush()
	v, found, err := protocol.ReadLookupResponse(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	return string(v), found
}

var familyLine = regexp.MustCompile(`(?m)^# TYPE (\S+) `)

// metricFamilies lists the Prometheus family names an instance's collect
// hook emits, sorted.
func metricFamilies(in *Member) []string {
	e := obs.NewExpo()
	in.collect(e, `{instance="x"}`)
	var buf bytes.Buffer
	e.WriteTo(&buf)
	var names []string
	for _, m := range familyLine.FindAllStringSubmatch(buf.String(), -1) {
		names = append(names, m[1])
	}
	sort.Strings(names)
	return names
}

// TestStartInstanceEveryBackend: all three backends run the same
// server, so each one serves native and memcached text traffic, persists
// to -datadir and comes back warm, and exposes the same /stats keys and
// /metrics families — the memcache baseline being LOCKHASH with one
// partition, not a server of its own.
func TestStartInstanceEveryBackend(t *testing.T) {
	families := map[string][]string{}
	for _, be := range []string{"cphash", "lockhash", "memcache"} {
		t.Run(be, func(t *testing.T) {
			cfg := memberConfig(be, t.TempDir())
			in, err := startMember(&cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { in.close() }()

			if v, ok := nativeGet(t, in.Addr, 7, []byte("seven")); !ok || v != "seven" {
				t.Fatalf("native GET = %q, %v", v, ok)
			}
			mc, err := mcclient.Dial(in.TextAddr, time.Second)
			if err != nil {
				t.Fatalf("text listener %q: %v", in.TextAddr, err)
			}
			if err := mc.Set("counter", []byte("41"), 0, 0); err != nil {
				t.Fatal(err)
			}
			if n, err := mc.Incr("counter", 1); err != nil || n != 42 {
				t.Fatalf("incr = %d, %v", n, err)
			}
			if it, err := mc.Get("counter"); err != nil || string(it.Value) != "42" {
				t.Fatalf("text get = %+v, %v", it, err)
			}
			mc.Close()

			snap := in.snapshot()
			for _, k := range []string{"connections", "batches", "requests", "elements"} {
				if n, _ := snap[k].(int64); n <= 0 {
					t.Errorf("/stats %s = %v, want > 0 (snapshot %v)", k, snap[k], snap)
				}
			}
			families[be] = metricFamilies(in)

			// A graceful stop flushes the WAL; the same directory serves
			// both keys again.
			in.close()
			in.close() // idempotent
			if in, err = startMember(&cfg, 0); err != nil {
				t.Fatal(err)
			}
			if v, ok := nativeGet(t, in.Addr, 7, nil); !ok || v != "seven" {
				t.Fatalf("native GET after restart = %q, %v", v, ok)
			}
			if mc, err = mcclient.Dial(in.TextAddr, time.Second); err != nil {
				t.Fatal(err)
			}
			defer mc.Close()
			if it, err := mc.Get("counter"); err != nil || string(it.Value) != "42" {
				t.Fatalf("text get after restart = %+v, %v", it, err)
			}
		})
	}

	// Same server, same table type: the baseline's exposition may differ
	// from LOCKHASH's in values only.
	if !reflect.DeepEqual(families["memcache"], families["lockhash"]) {
		t.Errorf("metric families differ:\nmemcache %v\nlockhash %v", families["memcache"], families["lockhash"])
	}
	joined := strings.Join(families["memcache"], " ")
	for _, prefix := range []string{"cphash_server_", "cphash_table_", "cphash_mctext_", "cphash_persist_"} {
		if !strings.Contains(joined, prefix) {
			t.Errorf("memcache backend emits no %s* family: %v", prefix, families["memcache"])
		}
	}
}

// TestMemcacheBackendRejectsPartitions: the baseline is defined by its
// single lock, so a -partitions that asks for more fails at startup
// instead of being silently overridden.
func TestMemcacheBackendRejectsPartitions(t *testing.T) {
	cfg := memberConfig("memcache", "")
	cfg.TextAddr = ""
	for _, n := range []int{0, 1} {
		cfg.Partitions = n
		in, err := startMember(&cfg, 0)
		if err != nil {
			t.Fatalf("-partitions %d: %v", n, err)
		}
		in.close()
	}
	cfg.Partitions = 4
	in, err := startMember(&cfg, 0)
	if err == nil {
		in.close()
		t.Fatal("memcache backend accepted -partitions 4")
	}
	if !strings.Contains(err.Error(), "-partitions 4 is not supported") {
		t.Fatalf("unexpected error: %v", err)
	}
}

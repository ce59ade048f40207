package loadgen

import (
	"testing"
	"time"

	"cphash/internal/kvserver"
	"cphash/internal/lockhash"
	"cphash/internal/workload"
)

func startServer(t *testing.T) *kvserver.Server {
	t.Helper()
	table := lockhash.MustNew(lockhash.Config{Partitions: 64, CapacityBytes: 4 << 20, Seed: 3})
	s, err := kvserver.Serve(kvserver.Config{
		Addr:       "127.0.0.1:0",
		TextAddr:   "127.0.0.1:0",
		Workers:    1,
		NewBackend: kvserver.NewLockHashBackend(table),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("Run accepted empty address list")
	}
	if _, err := Run(Config{Addrs: []string{"127.0.0.1:1"}, Spec: workload.Spec{}}); err == nil {
		t.Fatal("Run accepted invalid workload spec")
	}
}

func TestRunDialFailure(t *testing.T) {
	// A port with nothing listening: dial must fail cleanly.
	_, err := Run(Config{
		Addrs:      []string{"127.0.0.1:1"},
		Conns:      1,
		Spec:       workload.Default(8 << 10),
		OpsPerConn: 10,
	})
	if err == nil {
		t.Fatal("Run succeeded against a dead port")
	}
}

func TestRunEndToEnd(t *testing.T) {
	s := startServer(t)
	res, err := Run(Config{
		Addrs:      []string{s.Addr()},
		Conns:      3,
		Pipeline:   16,
		Spec:       workload.Default(8 << 10),
		OpsPerConn: 2000,
		Validate:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 6000 {
		t.Fatalf("ops = %d, want 6000", res.Ops)
	}
	if res.BadBytes != 0 {
		t.Fatalf("%d corrupt responses", res.BadBytes)
	}
	if res.Hits == 0 || res.Misses == 0 {
		t.Fatalf("degenerate hit/miss split: %d/%d", res.Hits, res.Misses)
	}
	// One sample per window: 2000 ops in windows of 16, on 3 sessions.
	if res.Latency.Count != 3*125 {
		t.Fatalf("latency samples = %d, want one per window (375)", res.Latency.Count)
	}
	if p50, p99 := res.Latency.Quantile(0.5), res.Latency.Quantile(0.99); p50 > p99 {
		t.Fatalf("window latency p50 %d > p99 %d", p50, p99)
	}
	if res.Throughput() <= 0 || res.String() == "" {
		t.Fatal("bad summary")
	}
}

// TestRunMultiNode spreads a validated workload over three server
// instances through the cluster routing layer; every hit must carry the
// right bytes, proving key→node placement is consistent between inserts
// and lookups.
func TestRunMultiNode(t *testing.T) {
	servers := make([]string, 3)
	for i := range servers {
		servers[i] = startServer(t).Addr()
	}
	res, err := Run(Config{
		Addrs:      servers,
		Conns:      2,
		Pipeline:   32,
		Spec:       workload.Default(8 << 10),
		OpsPerConn: 3000,
		Validate:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 6000 {
		t.Fatalf("ops = %d, want 6000", res.Ops)
	}
	if res.BadBytes != 0 {
		t.Fatalf("%d corrupt responses: cross-node routing inconsistent", res.BadBytes)
	}
	if res.Hits == 0 {
		t.Fatal("no hits across the cluster")
	}
	if len(res.Nodes) != 3 {
		t.Fatalf("per-node stats cover %d nodes, want 3", len(res.Nodes))
	}
	for addr, s := range res.Nodes {
		if s.Ops == 0 {
			t.Errorf("node %s received no operations; routing degenerate", addr)
		}
		if s.Errors != 0 {
			t.Errorf("node %s recorded %d errors in a healthy run", addr, s.Errors)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Ops: 100, Hits: 30, Misses: 10, Elapsed: time.Second}
	if r.Throughput() != 100 {
		t.Errorf("throughput = %v", r.Throughput())
	}
	if got := r.HitRate(); got != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", got)
	}
	if (Result{}).Throughput() != 0 || (Result{}).HitRate() != 0 {
		t.Error("zero-value result must report zeros")
	}
}

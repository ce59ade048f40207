package loadgen

import (
	"testing"

	"cphash/internal/workload"
)

// TestRunMemcachedEndToEnd drives a validated workload — shifting hot
// keys and a value-size mixture, the shapes this driver exists for —
// through the text protocol across two servers' text listeners. Every hit must carry
// the exact expected bytes, proving the text translation (flags prefix
// on, prefix off on read) and the continuum routing agree with the
// native verification model.
func TestRunMemcachedEndToEnd(t *testing.T) {
	addrs := []string{startServer(t).TextAddr(), startServer(t).TextAddr()}
	res, err := RunMemcached(Config{
		Addrs:      addrs,
		Conns:      2,
		Pipeline:   32,
		OpsPerConn: 3000,
		Validate:   true,
		Spec: workload.Spec{
			WorkingSetBytes: 8 << 10,
			InsertRatio:     0.3,
			Dist:            workload.Shifting,
			HotKeys:         16,
			ShiftEvery:      1000,
			Sizes:           []workload.SizeClass{{Bytes: 8, Weight: 3}, {Bytes: 200, Weight: 1}},
			Seed:            1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 6000 {
		t.Fatalf("ops = %d, want 6000", res.Ops)
	}
	if res.BadBytes != 0 {
		t.Fatalf("%d corrupt responses through the text front-end", res.BadBytes)
	}
	if res.Hits == 0 || res.Misses == 0 {
		t.Fatalf("degenerate hit/miss split: %d/%d", res.Hits, res.Misses)
	}
	// One sample per window: 3000 ops in windows of 32 (the last holds
	// 24), on 2 sessions.
	if res.Latency.Count != 2*94 {
		t.Fatalf("latency samples = %d, want one per window (188)", res.Latency.Count)
	}
	if p50, p99 := res.Latency.Quantile(0.5), res.Latency.Quantile(0.99); p50 > p99 {
		t.Fatalf("window latency p50 %d > p99 %d", p50, p99)
	}
}

// TestRunMemcachedValidation mirrors the native driver's input checks.
func TestRunMemcachedValidation(t *testing.T) {
	if _, err := RunMemcached(Config{}); err == nil {
		t.Fatal("RunMemcached accepted an empty address list")
	}
	if _, err := RunMemcached(Config{Addrs: []string{"127.0.0.1:1"}, Spec: workload.Spec{}}); err == nil {
		t.Fatal("RunMemcached accepted an invalid spec")
	}
	_, err := RunMemcached(Config{
		Addrs: []string{"127.0.0.1:1"}, Conns: 1, OpsPerConn: 8,
		Spec: workload.Default(1 << 10),
	})
	if err == nil {
		t.Fatal("RunMemcached reached a dead port")
	}
}

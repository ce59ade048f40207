package topology

import (
	"testing"
	"testing/quick"
)

func TestPaperMachine(t *testing.T) {
	m := PaperMachine()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Cores() != 80 {
		t.Errorf("cores = %d, want 80", m.Cores())
	}
	if m.Threads() != 160 {
		t.Errorf("threads = %d, want 160", m.Threads())
	}
	// §3.1: up to 80×256 KB + 8×30 MB ≈ 260 MB of aggregate cache.
	want := int64(80)*(256<<10) + 8*(30<<20)
	if got := m.AggregateCacheBytes(160); got != want {
		t.Errorf("aggregate cache = %d, want %d", got, want)
	}
}

func TestAMDMachine(t *testing.T) {
	if err := AMDMachine().Validate(); err != nil {
		t.Fatal(err)
	}
	if AMDMachine().Cores() != 48 {
		t.Errorf("AMD cores = %d, want 48", AMDMachine().Cores())
	}
}

func TestThreadMapping(t *testing.T) {
	m := PaperMachine()
	// Thread 0 and 1 are SMT siblings on core 0, socket 0.
	if m.CoreOf(0) != 0 || m.CoreOf(1) != 0 || m.SocketOf(1) != 0 {
		t.Error("threads 0/1 should share core 0 on socket 0")
	}
	if m.SiblingOf(0) != 0 || m.SiblingOf(1) != 1 {
		t.Error("sibling indices wrong")
	}
	// Thread 20 starts socket 1 (10 cores × 2 threads per socket).
	if m.SocketOf(20) != 1 {
		t.Errorf("SocketOf(20) = %d, want 1", m.SocketOf(20))
	}
	// Last thread is on the last core of the last socket.
	last := m.Threads() - 1
	if m.SocketOf(last) != 7 || m.CoreOf(last) != 79 {
		t.Errorf("last thread maps to socket %d core %d", m.SocketOf(last), m.CoreOf(last))
	}
}

// TestQuickThreadIDRoundTrip: ThreadID inverts (SocketOf, CoreOf, SiblingOf).
func TestQuickThreadIDRoundTrip(t *testing.T) {
	m := PaperMachine()
	f := func(raw uint16) bool {
		tid := int(raw) % m.Threads()
		sk, core, sib := m.SocketOf(tid), m.CoreOf(tid), m.SiblingOf(tid)
		return m.ThreadID(sk, core%m.CoresPerSocket, sib) == tid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadMachines(t *testing.T) {
	bad := []Machine{
		{Sockets: 0, CoresPerSocket: 1, ThreadsPerCore: 1},
		{Sockets: 1, CoresPerSocket: 0, ThreadsPerCore: 1},
		{Sockets: 1, CoresPerSocket: 1, ThreadsPerCore: 0},
		{Sockets: 1, CoresPerSocket: 1, ThreadsPerCore: 1, L2Size: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("machine %d validated", i)
		}
	}
}

func TestAggregateCacheBytesPartial(t *testing.T) {
	m := PaperMachine()
	// Two threads on the same core: one L2, one L3.
	if got, want := m.AggregateCacheBytes(2), int64(256<<10)+int64(30<<20); got != want {
		t.Errorf("2 threads: %d, want %d", got, want)
	}
	// 20 threads = socket 0 fully: 10 L2s + 1 L3.
	if got, want := m.AggregateCacheBytes(20), int64(10)*(256<<10)+int64(30<<20); got != want {
		t.Errorf("20 threads: %d, want %d", got, want)
	}
	// Beyond the machine clamps.
	if m.AggregateCacheBytes(10_000) != m.AggregateCacheBytes(160) {
		t.Error("over-count not clamped")
	}
}

func TestString(t *testing.T) {
	if PaperMachine().String() == "" {
		t.Error("empty String()")
	}
}

// Package topology models the machine topology used throughout the CPHash
// reproduction: sockets, cores per socket, hardware threads per core, and
// the cache hierarchy attached to each level.
//
// The paper's evaluation machine is an 8-socket Intel E7-8870 system with
// 10 cores per socket, 2 hardware threads per core (160 hardware threads
// total), a 256 KB L2 cache per core, and a 30 MB L3 cache shared by the 10
// cores of a socket. PaperMachine returns exactly that topology; the cache
// simulator (internal/cachesim) and the benchmark harness consume it so that
// socket-sensitive experiments (Figures 11 and 12) run against the paper's
// geometry regardless of the host machine.
package topology

import (
	"fmt"
)

// Cache line size, in bytes, assumed everywhere in this repository. Both the
// paper's machines and essentially all contemporary x86/arm64 server parts
// use 64-byte lines.
const CacheLineSize = 64

// Machine describes a multi-socket shared-memory machine.
type Machine struct {
	// Sockets is the number of processor sockets (NUMA nodes).
	Sockets int
	// CoresPerSocket is the number of physical cores on each socket.
	CoresPerSocket int
	// ThreadsPerCore is the number of hardware threads (SMT) per core.
	ThreadsPerCore int

	// L1Size and L2Size are per-core cache sizes in bytes. The paper reports
	// only the 256 KB L2; we model a conventional 32 KB L1D in front of it.
	L1Size int
	L2Size int
	// L3Size is the per-socket shared cache size in bytes.
	L3Size int

	// ClockHz is the nominal core clock; used only to convert cycles to
	// seconds in reports.
	ClockHz int64
}

// PaperMachine returns the 80-core, 160-hardware-thread Intel machine used
// in the paper's evaluation (Section 6).
func PaperMachine() Machine {
	return Machine{
		Sockets:        8,
		CoresPerSocket: 10,
		ThreadsPerCore: 2,
		L1Size:         32 << 10,
		L2Size:         256 << 10,
		L3Size:         30 << 20,
		ClockHz:        2_400_000_000,
	}
}

// AMDMachine returns the 48-core AMD machine the paper mentions as a
// secondary evaluation platform (8 sockets, 6 cores each, no SMT).
func AMDMachine() Machine {
	return Machine{
		Sockets:        8,
		CoresPerSocket: 6,
		ThreadsPerCore: 1,
		L1Size:         64 << 10,
		L2Size:         512 << 10,
		L3Size:         6 << 20,
		ClockHz:        2_000_000_000,
	}
}

// ScaleCaches returns a copy of m with every cache divided by div. The
// simulated Figure 5/8/9 sweeps use a 1/64-scale paper machine so the
// working-set axis (and therefore the simulated element count) shrinks by
// the same factor while the topology and the curve's shape are preserved;
// the crossover points simply move left by the scale factor.
func (m Machine) ScaleCaches(div int) Machine {
	if div < 1 {
		div = 1
	}
	m.L1Size /= div
	m.L2Size /= div
	m.L3Size /= div
	return m
}

// Cores returns the total number of physical cores.
func (m Machine) Cores() int { return m.Sockets * m.CoresPerSocket }

// Threads returns the total number of hardware threads.
func (m Machine) Threads() int { return m.Cores() * m.ThreadsPerCore }

// SocketOf returns the socket that hardware thread t belongs to.
// Hardware threads are numbered socket-major, then core, then SMT sibling:
// thread t lives on core (t / ThreadsPerCore) and socket
// (core / CoresPerSocket).
func (m Machine) SocketOf(t int) int { return m.CoreOf(t) / m.CoresPerSocket }

// CoreOf returns the physical core that hardware thread t belongs to.
func (m Machine) CoreOf(t int) int { return t / m.ThreadsPerCore }

// SiblingOf returns the SMT sibling index (0 or 1 on the paper machine) of
// hardware thread t within its core.
func (m Machine) SiblingOf(t int) int { return t % m.ThreadsPerCore }

// ThreadID returns the hardware-thread number for (socket, core, sibling),
// the inverse of SocketOf/CoreOf/SiblingOf.
func (m Machine) ThreadID(socket, core, sibling int) int {
	return (socket*m.CoresPerSocket+core)*m.ThreadsPerCore + sibling
}

// Validate reports whether the machine description is internally consistent.
func (m Machine) Validate() error {
	switch {
	case m.Sockets <= 0:
		return fmt.Errorf("topology: Sockets must be positive, got %d", m.Sockets)
	case m.CoresPerSocket <= 0:
		return fmt.Errorf("topology: CoresPerSocket must be positive, got %d", m.CoresPerSocket)
	case m.ThreadsPerCore <= 0:
		return fmt.Errorf("topology: ThreadsPerCore must be positive, got %d", m.ThreadsPerCore)
	case m.L1Size < 0 || m.L2Size < 0 || m.L3Size < 0:
		return fmt.Errorf("topology: cache sizes must be non-negative")
	}
	return nil
}

// AggregateCacheBytes returns the total cache capacity reachable by the
// first n hardware threads: the sum of the distinct L2s and L3s they touch.
// The paper uses this quantity (80×256 KB + 8×30 MB ≈ 260 MB) to predict
// where CPHash performance starts to be DRAM-bound (Section 3.1).
func (m Machine) AggregateCacheBytes(n int) int64 {
	if n > m.Threads() {
		n = m.Threads()
	}
	cores := map[int]bool{}
	sockets := map[int]bool{}
	for t := 0; t < n; t++ {
		cores[m.CoreOf(t)] = true
		sockets[m.SocketOf(t)] = true
	}
	return int64(len(cores))*int64(m.L2Size) + int64(len(sockets))*int64(m.L3Size)
}

// String implements fmt.Stringer.
func (m Machine) String() string {
	return fmt.Sprintf("%d sockets × %d cores × %d hw threads (L2 %d KB/core, L3 %d MB/socket)",
		m.Sockets, m.CoresPerSocket, m.ThreadsPerCore, m.L2Size>>10, m.L3Size>>20)
}

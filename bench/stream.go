package main

import (
	"math"

	"cphash/internal/workload"
)

// streamLen is how many operations each generator pre-computes; the
// timed loops replay them (wrapping) so no PRNG runs while timing.
const streamLen = 1 << 21

// An op packs one generated operation: the 60-bit key with the top bit
// set for a SET/INSERT.
type op uint64

const opSetBit = 1 << 63

func (o op) key() uint64 { return uint64(o) &^ opSetBit }
func (o op) isSet() bool { return o&opSetBit != 0 }

// cursor replays a stream in a loop.
type cursor struct {
	stream []op
	pos    int
}

func (c *cursor) nextOp() op {
	o := c.stream[c.pos]
	if c.pos++; c.pos == len(c.stream) {
		c.pos = 0
	}
	return o
}

// ownKey gives generator g its own half of the key universe by fixing the
// key's low bit. With one writer per key, a GET can only race a SET that
// precedes it on the same connection, which the server orders; a GET
// racing another connection's SET of the same key could legally miss
// (the table's NOT_READY window) and the must-hit workloads could not
// validate hit_frac = 1.
func ownKey(k uint64, g int) uint64 { return k&^1 | uint64(g) }

// keyFilter reports whether generator g may use key k (after ownKey);
// durable_set50 uses it to keep each connection on its instance's keys.
type keyFilter func(k uint64) bool

// genStream returns generator g's operation stream for spec: n ops drawn
// from workload.Generator seeded by (seed, g). No key that is SET
// reappears (as GET or SET) within gap operations, also across the
// wrap-around, so that a pipelined in-process client never looks up an
// element whose insert is still NOT_READY.
func genStream(spec workload.Spec, seed uint64, g, gens, n, gap int, keep keyFilter) []op {
	sp := spec
	sp.WorkingSetBytes = spec.WorkingSetBytes / gens
	sp.Seed = seed*1000003 + uint64(g)*7919 + 1
	gen := workload.MustGenerator(sp)
	out := make([]op, 0, n)
	recent := make(map[uint64]int, 2*gap) // SET keys within the last gap ops
	head := make(map[uint64]struct{}, gap)
	for len(out) < n {
		kind, k := gen.Next()
		k = ownKey(k, g)
		if keep != nil && !keep(k) {
			continue
		}
		if gap > 0 {
			if recent[k] > 0 {
				continue
			}
			if len(out) >= n-gap {
				if _, clash := head[k]; clash {
					continue
				}
			}
		}
		o := op(k)
		if kind == workload.Insert {
			o |= opSetBit
		}
		if gap > 0 {
			if o.isSet() {
				recent[k]++
			}
			if len(out) < gap {
				head[k] = struct{}{}
			}
			if i := len(out) - gap; i >= 0 && out[i].isSet() {
				if recent[out[i].key()]--; recent[out[i].key()] == 0 {
					delete(recent, out[i].key())
				}
			}
		}
		out = append(out, o)
	}
	return out
}

// universe lists every key generator g can draw: key index i of the
// halved working set, low bit fixed to g, filtered like the stream.
func universe(spec workload.Spec, g, gens int, keep keyFilter) []uint64 {
	sp := spec
	sp.WorkingSetBytes = spec.WorkingSetBytes / gens
	n := sp.NumKeys()
	keys := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		k := ownKey(workload.KeyOfIndex(uint64(i)), g)
		if keep == nil || keep(k) {
			keys = append(keys, k)
		}
	}
	return keys
}

// splitmix is the stream behind the Poisson schedule; the workload
// package keeps its own private.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// poissonUnit returns n cumulative arrival times of a unit-rate Poisson
// process, a pure function of (seed, g). An open phase at rate r
// schedules operation i at unit[i]/r seconds.
func poissonUnit(seed uint64, g, n int) []float64 {
	s := splitmix(seed*0x51ed27 + uint64(g)*0x2545f491 + 0x1234567)
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		u := (float64(s.next()>>11) + 0.5) / (1 << 53)
		t += -math.Log(u)
		out[i] = t
	}
	return out
}

// dueAt returns when operation i of an open phase at rate ops/s is due,
// in nanoseconds from the phase start. Past the end of unit the schedule
// repeats itself shifted by its own length, so any rate × duration fits.
func dueAt(unit []float64, i int, rate float64) int64 {
	n := len(unit)
	t := unit[i%n] + float64(i/n)*unit[n-1]
	return int64(t / rate * 1e9)
}

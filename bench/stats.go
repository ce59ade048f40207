package main

import (
	"fmt"
	"time"

	"cphash/internal/workload"
)

// sliceNs is the width of a measurement slice. Every timing metric is the
// median over the slices of its phase: on a shared two-CPU box a stall
// lands in one or two slices and the median does not move, where a
// whole-phase mean would.
const sliceNs = int64(time.Second)

// maxInflight caps a generator's outstanding requests in an open phase;
// maxLateNs is how far behind its due time a request may be sent before
// it is counted failed instead.
const (
	maxInflight = 1024
	maxLateNs   = int64(time.Second)
)

// genStats is what one generator records during one phase. All times are
// nanoseconds since the phase started.
type genStats struct {
	open                           bool
	slices                         int
	done                           []uint64 // completions per slice: by completion time (closed) or due time (open)
	lat                            []*hist  // open: latency from due time, per due-time slice
	late                           *hist    // open: send time minus due time
	sched, sent, completed, failed uint64
	gets, hits                     uint64
	err                            error // first validation or transport error
	tr                             *tracer
}

func newGenStats(dur time.Duration, open bool, tr *tracer) *genStats {
	n := int(int64(dur) / sliceNs)
	st := &genStats{open: open, slices: n, done: make([]uint64, n), tr: tr}
	if open {
		st.late = newHist()
		st.lat = make([]*hist, n)
		for i := range st.lat {
			st.lat[i] = newHist()
		}
	}
	return st
}

// finish records one request that completed with the right answer.
func (st *genStats) finish(now, due int64) {
	st.completed++
	if !st.open {
		if i := int(now / sliceNs); i < st.slices {
			st.done[i]++
		}
		return
	}
	if i := int(due / sliceNs); i < st.slices {
		st.done[i]++
		st.lat[i].record(now - due)
	}
}

// sentAt records one request sent in an open phase.
func (st *genStats) sentAt(now, due int64) {
	st.sent++
	st.late.record(now - due)
}

// got records the answer to a GET of key and reports whether it is
// right: a hit must carry exactly the bytes the key determines, and where
// nothing is ever evicted (mustHit) a miss is a wrong answer too.
func (st *genStats) got(spec workload.Spec, mustHit bool, key uint64, v []byte, hit bool) bool {
	st.gets++
	switch {
	case hit && !spec.CheckValue(key, v):
		st.fail(fmt.Errorf("key %d: wrong value (%d bytes)", key, len(v)))
		return false
	case hit:
		st.hits++
	case mustHit:
		st.fail(fmt.Errorf("key %d: miss on a key that is never evicted", key))
		return false
	}
	return true
}

func (st *genStats) fail(err error) {
	st.failed++
	if st.err == nil {
		st.err = err
	}
}

// phaseResult is the generators' stats merged.
type phaseResult struct {
	genStats
	rate float64 // open: the scheduled rate, all generators
}

func mergeStats(gens []*genStats, rate float64) *phaseResult {
	r := &phaseResult{genStats: *newGenStats(time.Duration(int64(gens[0].slices)*sliceNs), gens[0].open, nil), rate: rate}
	for _, g := range gens {
		r.sched += g.sched
		r.sent += g.sent
		r.completed += g.completed
		r.failed += g.failed
		r.gets += g.gets
		r.hits += g.hits
		if r.err == nil {
			r.err = g.err
		}
		for i := range g.done {
			r.done[i] += g.done[i]
			if r.open {
				r.lat[i].merge(g.lat[i])
			}
		}
		if r.open {
			r.late.merge(g.late)
		}
	}
	return r
}

// sliceRate is the median completions-per-second over the slices.
func (r *phaseResult) sliceRate() float64 {
	xs := make([]float64, r.slices)
	for i, n := range r.done {
		xs[i] = float64(n) * float64(time.Second) / float64(sliceNs)
	}
	return median(xs)
}

// sliceQuantileUs is the median over slices of each slice's quantile q,
// in microseconds.
func (r *phaseResult) sliceQuantileUs(q float64) float64 {
	xs := make([]float64, 0, r.slices)
	for _, h := range r.lat {
		if h.n > 0 {
			xs = append(xs, h.quantile(q)/1e3)
		}
	}
	return median(xs)
}

// beyond returns the smallest per-slice count of samples above quantile q.
func (r *phaseResult) beyond(q float64) uint64 {
	min := ^uint64(0)
	for _, h := range r.lat {
		if n := h.above(q); n < min {
			min = n
		}
	}
	return min
}

// backlogGrew reports whether requests were queueing up faster than they
// completed over the step: a growing queue makes every later request wait
// longer, so the median latency of the last slice ends far above that of
// the first. Medians, so that a stall inside either slice does not count.
func (r *phaseResult) backlogGrew() bool {
	if r.slices < 2 || r.lat[0].n == 0 || r.lat[r.slices-1].n == 0 {
		return false
	}
	first, last := r.lat[0].quantile(0.5), r.lat[r.slices-1].quantile(0.5)
	return last > 2*first+float64(time.Millisecond)
}

// meetsSLO applies the three conditions of slo_rate_per_s to an open
// step. completed counts validated replies only, so a request that was
// late beyond maxLateNs, errored or returned wrong bytes misses the limit.
func (r *phaseResult) meetsSLO(p99LimitUs float64) bool {
	return r.sliceQuantileUs(0.99) <= p99LimitUs &&
		float64(r.completed) >= 0.999*float64(r.sched) &&
		!r.backlogGrew()
}

package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"cphash/internal/core"
	"cphash/internal/workload"
)

// pendingOp is one asynchronous table operation awaiting completion.
type pendingOp struct {
	o   *core.Op
	due int64
	set bool
	req int64 // ≥ 0 when traced
	t0  int64 // tracer time at issue
}

// opQueue holds the pending ops of one partition in issue order, which is
// also their completion order (rings are FIFO per client and server).
// Slot i of vals backs the value of the insert in queue place i, so a
// value stays untouched until its op is done, as InsertAsync requires.
type opQueue struct {
	buf        []pendingOp
	vals       []byte
	valSize    int
	head, tail uint64
}

func newOpQueue(places, valSize int) *opQueue {
	return &opQueue{buf: make([]pendingOp, places), vals: make([]byte, places*valSize), valSize: valSize}
}

func (q *opQueue) full() bool { return q.tail-q.head == uint64(len(q.buf)) }

func (q *opQueue) slot() []byte {
	i := int(q.tail % uint64(len(q.buf)))
	return q.vals[i*q.valSize : (i+1)*q.valSize]
}

func (q *opQueue) push(p pendingOp) {
	q.buf[q.tail%uint64(len(q.buf))] = p
	q.tail++
}

// inprocClient is one generator driving the table through a core.Client.
type inprocClient struct {
	t       *core.Table
	c       *core.Client
	spec    workload.Spec
	mustHit bool
	cursor
	unit   []float64
	queues []*opQueue // one per partition
	ops    uint64
}

func newInprocClient(t *core.Table, id int, w *workloadDef, stream []op, unit []float64) (*inprocClient, error) {
	c, err := t.Client(id)
	if err != nil {
		return nil, err
	}
	ic := &inprocClient{t: t, c: c, spec: w.spec, mustHit: w.mustHit, cursor: cursor{stream: stream}, unit: unit}
	for p := 0; p < t.NumPartitions(); p++ {
		ic.queues = append(ic.queues, newOpQueue(4*maxInflight, w.spec.MaxValueSize()))
	}
	return ic, nil
}

// issue starts o asynchronously. The core client polls replies by itself
// when its pipeline or a ring is full, so ops may complete in here.
func (ic *inprocClient) issue(o op, due int64, st *genStats) {
	q := ic.queues[ic.t.PartitionOf(o.key())]
	if q.full() {
		ic.harvest(due, st) // cannot happen below 4× the pipeline bound; keeps the slot rule safe
	}
	p := pendingOp{due: due, set: o.isSet(), req: -1}
	if st.tr != nil && ic.ops%traceEvery == 0 {
		p.req, p.t0 = int64(ic.ops), st.tr.now()
	}
	ic.ops++
	if p.set {
		p.o = ic.c.InsertAsync(o.key(), ic.spec.FillValue(o.key(), q.slot()))
	} else {
		p.o = ic.c.LookupAsync(o.key())
	}
	q.push(p)
}

// harvest completes every pending op that is done, validating lookups
// byte-for-byte, and returns how many it completed.
func (ic *inprocClient) harvest(now int64, st *genStats) int {
	n := 0
	for _, q := range ic.queues {
		for q.head != q.tail {
			p := &q.buf[q.head%uint64(len(q.buf))]
			if !p.o.Done() {
				break
			}
			ok := true
			key := p.o.Key()
			switch {
			case p.set:
				if !p.o.Hit() {
					st.fail(fmt.Errorf("key %d: insert found no space", key))
					ok = false
				}
			default:
				ok = st.got(ic.spec, ic.mustHit, key, p.o.Value(), p.o.Hit())
			}
			ic.c.Release(p.o)
			if ok {
				st.finish(now, p.due)
			}
			if p.req >= 0 {
				st.tr.add(span{Name: "loadgen.request", Start: p.t0, End: st.tr.now(), Parent: -1, Req: p.req})
			}
			q.head++
			n++
		}
	}
	return n
}

// run drives one phase: closed (rate 0) keeps window ops in flight; open
// issues op i at unit[i]/rate and times it from then. Between due times
// the goroutine yields rather than sleeps: the table's server goroutines
// share the two Ps with it, and a parked generator would be woken by the
// runtime's millisecond timers, not on time.
func (ic *inprocClient) run(t0 time.Time, dur time.Duration, window int, rate float64, st *genStats) {
	end := int64(dur)
	limit := window
	if st.open {
		limit = maxInflight
	}
	ic.c.SetPipeline(limit)
	next := 0
	for {
		now := int64(time.Since(t0))
		if now >= end {
			break
		}
		if st.open {
			for {
				due := dueAt(ic.unit, next, rate)
				if due > now || due >= end {
					break
				}
				if ic.c.Outstanding() >= limit {
					if now-due <= maxLateNs {
						break
					}
					ic.nextOp()
					st.sched++
					st.fail(errors.New("request could not be sent within 1 s of its due time"))
					next++
					continue
				}
				st.sched++
				st.sentAt(now, due)
				ic.issue(ic.nextOp(), due, st)
				next++
			}
		} else {
			for ic.c.Outstanding() < limit {
				st.sched++
				st.sent++
				ic.issue(ic.nextOp(), now, st)
			}
		}
		ic.c.FlushAll()
		ic.c.Poll()
		if ic.harvest(int64(time.Since(t0)), st) == 0 {
			runtime.Gosched()
		}
	}
	ic.c.WaitAll()
	ic.harvest(int64(time.Since(t0)), st)
}

// preload inserts every key once, pipelined, and checks each insert.
func (ic *inprocClient) preload(keys []uint64) error {
	st := newGenStats(0, false, nil)
	ic.c.SetPipeline(maxInflight)
	for i, k := range keys {
		ic.issue(op(k)|opSetBit, 0, st)
		if i%256 == 255 {
			ic.c.FlushAll()
			ic.c.Poll()
			ic.harvest(0, st)
		}
	}
	ic.c.WaitAll()
	ic.harvest(0, st)
	return st.err
}

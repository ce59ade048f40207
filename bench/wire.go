package main

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cphash/internal/protocol"
	"cphash/internal/workload"
)

// flight is one request on the wire awaiting its reply. Replies come back
// in request order, so the queue of flights is all the matching needed.
type flight struct {
	due int64
	o   op
	tr  int32 // 1 + index into wireConn.slots when the request is traced
}

// traceSlot collects the stage times of one sampled request.
type traceSlot struct {
	req                                                   int64
	encStart, encEnd, flushed, readable, decStart, decEnd int64
}

// maxSlots bounds the sampled requests of one phase. The slot array is
// allocated once so that the receiver can index it while the sender
// hands out new slots.
const maxSlots = 8192

// paceQuantumNs is the shortest sleep of an open-phase sender. Waking for
// every request costs the generator a core at a few hundred thousand
// requests per second — on a two-CPU host, the server's core. Requests
// that fall due inside a quantum go out together at its end; the wait is
// part of their latency, which is timed from the due time, and shows in
// loadgen.late_p99_us.
const paceQuantumNs = 100_000

const flightCap = 4 * maxInflight // power of two, > any in-flight bound

// wireConn is one generator's connection to cpserver, speaking either
// the native binary protocol or memcached text.
type wireConn struct {
	c       net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	text    bool
	spec    workload.Spec
	mustHit bool

	cursor
	unit []float64 // unit-rate Poisson arrival times

	val, rd, enc []byte // scratch: value to send, value read, text line

	// The flight queue: the sender owns tail, the receiver owns head. In a
	// closed phase one goroutine plays both parts.
	ring       []flight
	head, tail atomic.Uint64

	ops      uint64 // requests encoded over the connection's life, for sampling
	slots    []traceSlot
	nslots   int     // slots handed out this phase; sender-owned
	unflush  []int32 // traced requests encoded but not yet flushed
	stopRecv atomic.Bool
}

func dialWire(addr string, text bool, w *workloadDef, stream []op, unit []float64) (*wireConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	max := w.spec.MaxValueSize()
	return &wireConn{
		c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10),
		text: text, spec: w.spec, mustHit: w.mustHit,
		cursor: cursor{stream: stream}, unit: unit,
		val: make([]byte, max), rd: make([]byte, 0, max+16), enc: make([]byte, 0, max+64),
		ring: make([]flight, flightCap), slots: make([]traceSlot, maxSlots),
	}, nil
}

func (wc *wireConn) inflight() int { return int(wc.tail.Load() - wc.head.Load()) }

// replies reports whether o elicits a reply: everything does in the text
// protocol; a native INSERT is silent and is timed to the reply of the
// next LOOKUP behind it, the first evidence of its completion the
// protocol offers.
func (wc *wireConn) replies(o op) bool { return wc.text || !o.isSet() }

// send encodes o and queues its flight; the caller flushes.
func (wc *wireConn) send(o op, due int64, st *genStats) error {
	var slot int32
	if st.tr != nil && wc.ops%traceEvery == 0 && wc.nslots < maxSlots {
		wc.slots[wc.nslots] = traceSlot{req: int64(wc.ops), encStart: st.tr.now()}
		wc.nslots++
		slot = int32(wc.nslots)
	}
	wc.ops++
	var err error
	switch {
	case wc.text && o.isSet():
		wc.enc = appendTextSet(wc.enc[:0], o.key(), wc.spec.FillValue(o.key(), wc.val))
		_, err = wc.bw.Write(wc.enc)
	case wc.text:
		wc.enc = appendTextGet(wc.enc[:0], o.key())
		_, err = wc.bw.Write(wc.enc)
	case o.isSet():
		err = protocol.WriteRequest(wc.bw, protocol.Request{Op: protocol.OpInsert, Key: o.key(), Value: wc.spec.FillValue(o.key(), wc.val)})
	default:
		err = protocol.WriteRequest(wc.bw, protocol.Request{Op: protocol.OpLookup, Key: o.key()})
	}
	if slot != 0 {
		wc.slots[slot-1].encEnd = st.tr.now()
		wc.unflush = append(wc.unflush, slot)
	}
	t := wc.tail.Load()
	wc.ring[t%flightCap] = flight{due: due, o: o, tr: slot}
	wc.tail.Store(t + 1)
	return err
}

func (wc *wireConn) flush(st *genStats) error {
	err := wc.bw.Flush()
	if len(wc.unflush) > 0 {
		now := st.tr.now()
		for _, s := range wc.unflush {
			wc.slots[s-1].flushed = now
		}
		wc.unflush = wc.unflush[:0]
	}
	return err
}

// recv blocks until at least one reply is readable, stamps that instant,
// and consumes every reply already buffered, validating each value
// byte-for-byte against the one the key determines.
func (wc *wireConn) recv(t0 time.Time, st *genStats) error {
	if _, err := wc.br.Peek(1); err != nil {
		return err
	}
	now := int64(time.Since(t0))
	var trNow int64
	if st.tr != nil {
		trNow = st.tr.now()
	}
	for {
		h := wc.head.Load()
		for {
			if h == wc.tail.Load() {
				return errors.New("reply with no request in flight")
			}
			if wc.replies(wc.ring[h%flightCap].o) {
				break
			}
			st.finish(now, wc.ring[h%flightCap].due) // silent INSERT ahead of this reply
			h++
		}
		f := wc.ring[h%flightCap]
		if f.tr != 0 {
			wc.slots[f.tr-1].readable, wc.slots[f.tr-1].decStart = trNow, st.tr.now()
		}
		ok, err := wc.readReply(f.o, st)
		if err != nil {
			return err
		}
		if f.tr != 0 {
			wc.slots[f.tr-1].decEnd = st.tr.now()
		}
		if ok {
			st.finish(now, f.due)
		}
		wc.head.Store(h + 1)
		if wc.br.Buffered() == 0 {
			return nil
		}
	}
}

// readReply parses and validates the reply to o. A transport or framing
// error is returned; a wrong answer is counted failed (ok = false) and
// reading goes on.
func (wc *wireConn) readReply(o op, st *genStats) (ok bool, err error) {
	if o.isSet() {
		err = readTextSet(wc.br)
		return err == nil, err
	}
	var (
		v   []byte
		hit bool
	)
	if wc.text {
		v, hit, err = readTextGet(wc.br, o.key(), wc.rd[:0])
	} else {
		v, hit, err = protocol.ReadLookupResponse(wc.br, wc.rd[:0])
	}
	if err != nil {
		return false, err
	}
	return st.got(wc.spec, wc.mustHit, o.key(), v, hit), nil
}

// fence sends one LOOKUP — of the key of the last operation sent — so
// that silent INSERTs at the tail of a phase get a reply to complete on.
func (wc *wireConn) fence(due int64, st *genStats) error {
	if wc.text {
		return nil
	}
	last := wc.stream[(wc.pos+len(wc.stream)-1)%len(wc.stream)]
	st.sched++
	st.sent++
	return wc.send(op(last.key()), due, st)
}

// abort counts everything still in flight as failed after a transport
// error; the connection is unusable afterwards.
func (wc *wireConn) abort(err error, st *genStats) {
	n := wc.inflight()
	if n == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		st.fail(err)
	}
	wc.head.Store(wc.tail.Load())
}

// closed runs a closed loop for dur: keep window requests in flight, send
// the next one only as replies free a place.
func (wc *wireConn) closed(t0 time.Time, dur time.Duration, window int, st *genStats) {
	end := int64(dur)
	_ = wc.c.SetReadDeadline(time.Now().Add(dur + 30*time.Second))
	for {
		now := int64(time.Since(t0))
		if now >= end {
			break
		}
		for wc.inflight() < window {
			st.sched++
			st.sent++
			if err := wc.send(wc.nextOp(), now, st); err != nil {
				wc.abort(err, st)
				return
			}
		}
		if err := wc.flush(st); err != nil {
			wc.abort(err, st)
			return
		}
		if err := wc.recv(t0, st); err != nil {
			wc.abort(err, st)
			return
		}
	}
	wc.drain(t0, end, st)
}

// drain fences and waits for everything in flight.
func (wc *wireConn) drain(t0 time.Time, due int64, st *genStats) {
	err := wc.fence(due, st)
	if err == nil {
		err = wc.flush(st)
	}
	for err == nil && wc.inflight() > 0 {
		err = wc.recv(t0, st)
	}
	if err != nil {
		wc.abort(err, st)
	}
	wc.collectSpans(st)
}

// open runs an open loop for dur: request i is due at unit[i]/rate
// whatever the system does, and is timed from that instant. A paced
// sender and a receiver share the flight queue.
func (wc *wireConn) open(t0 time.Time, dur time.Duration, rate float64, st *genStats) {
	end := int64(dur)
	_ = wc.c.SetReadDeadline(time.Time{})
	wc.stopRecv.Store(false)
	var (
		wg      sync.WaitGroup
		recvErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if err := wc.recv(t0, st); err != nil {
				if !wc.stopRecv.Load() {
					recvErr = err
				}
				return
			}
		}
	}()

	// While both run, the sender writes only sched/sent/late of st
	// and the receiver only the rest, so its failures are kept aside.
	var failed uint64
	var sendErr error
	func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tightTimerSlack()
		for i := 0; sendErr == nil; {
			due := dueAt(wc.unit, i, rate)
			if due >= end {
				break
			}
			now := int64(time.Since(t0))
			switch {
			case due > now:
				// Sleep to the next due time, but at least one pacing
				// quantum, so that sends coalesce into batches.
				if sendErr = wc.flush(st); sendErr == nil {
					sleepNs(max(due-now, paceQuantumNs))
				}
			case wc.inflight() >= maxInflight:
				if now-due > maxLateNs {
					wc.nextOp()
					st.sched++
					failed++
					i++
					break
				}
				if sendErr = wc.flush(st); sendErr == nil {
					sleepNs(50_000)
				}
			default:
				st.sched++
				st.sentAt(now, due)
				sendErr = wc.send(wc.nextOp(), due, st)
				i++
			}
		}
		if sendErr == nil {
			sendErr = wc.flush(st)
		}
	}()
	if sendErr == nil && !wc.text {
		sendErr = wc.fence(end, st)
		if sendErr == nil {
			sendErr = wc.flush(st)
		}
	}
	// Let the receiver finish what is in flight, then wake it.
	for wait := time.Now(); wc.inflight() > 0 && time.Since(wait) < 2*time.Second; {
		time.Sleep(200 * time.Microsecond)
	}
	wc.stopRecv.Store(true)
	_ = wc.c.SetReadDeadline(time.Now())
	wg.Wait()
	_ = wc.c.SetReadDeadline(time.Time{})
	for ; failed > 0; failed-- {
		st.fail(errors.New("request could not be sent within 1 s of its due time"))
	}
	if err := cmp.Or(sendErr, recvErr); err != nil {
		wc.abort(err, st)
	}
	if n := wc.inflight(); n > 0 {
		wc.abort(fmt.Errorf("%d requests unanswered 2 s after the phase ended", n), st)
	}
	wc.collectSpans(st)
}

// collectSpans turns the phase's trace slots into spans.
func (wc *wireConn) collectSpans(st *genStats) {
	for _, s := range wc.slots[:wc.nslots] {
		if s.decEnd == 0 {
			continue // never answered
		}
		st.tr.add(
			span{Name: "loadgen.request", Start: s.encStart, End: s.decEnd, Parent: -1, Req: s.req},
			span{Name: "protocol.encode", Start: s.encStart, End: s.encEnd, Parent: 0, Req: s.req},
			span{Name: "socket.wait", Start: s.flushed, End: s.readable, Parent: 0, Req: s.req},
			span{Name: "protocol.decode", Start: s.decStart, End: s.decEnd, Parent: 0, Req: s.req},
		)
	}
	wc.nslots = 0
}

// prSetTimerSlack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerSlack = 29

// tightTimerSlack asks the kernel to wake this thread within 1 ns of a
// sleep's end instead of the default 50 µs. The Go runtime's own timers
// round sub-millisecond sleeps of an idle process up to 1 ms, which would
// make every open-loop request that late; the sender therefore sleeps in
// nanosleep on a locked thread.
func tightTimerSlack() {
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // a refusal only costs precision, which late_p99_us reports
}

func sleepNs(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up re-enters the pacing loop
}

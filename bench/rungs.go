package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cphash/internal/core"
	"cphash/internal/lockhash"
	"cphash/internal/partition"
	"cphash/internal/protocol"
	"cphash/internal/ring"
)

// The in-process rungs replay generator 0's pre-generated stream through
// one layer at a time, single-threaded, calling only the layer's public
// functions. Calls are timed in batches of rungBatch with one span per
// batch; the clock cost per batch is trace.clock_ns, far below a batch.
const rungBatch = 1024

// rungInput is what every rung replays.
type rungInput struct {
	w      *workloadDef
	stream []op
	keys   []uint64 // generator 0's key universe, all preloaded
	cap    int      // bytes for a store holding keys, at the workload's own fill ratio
	tr     *tracer
}

func newRungInput(w *workloadDef, in *inputs, tr *tracer) *rungInput {
	// Generator 0 owns one instance's keys of a durable system, and
	// 1/procs of the keys of any other.
	r := &rungInput{w: w, stream: in.streams[0], keys: in.keys[0], tr: tr, cap: w.capacity}
	if !w.durable {
		r.cap = w.capacity / procs
	}
	return r
}

// timed runs f over the stream in batches, splitting each batch by kind:
// f(gets) then f(sets) preserves each kind's order, and lets lookups and
// inserts be priced apart without a clock read per call.
func (r *rungInput) timed(name string, get, set func(key uint64)) (getNs, setNs float64, gets, sets int) {
	root := span{Name: name, Start: r.tr.now(), Parent: -1, Req: -1}
	spans := []span{root}
	var gk, sk [rungBatch]uint64
	var getT, setT time.Duration
	for i := 0; i < len(r.stream); i += rungBatch {
		ng, ns := 0, 0
		for _, o := range r.stream[i:min(i+rungBatch, len(r.stream))] {
			if o.isSet() {
				sk[ns] = o.key()
				ns++
			} else {
				gk[ng] = o.key()
				ng++
			}
		}
		t0 := time.Now()
		for _, k := range sk[:ns] {
			set(k)
		}
		t1 := time.Now()
		for _, k := range gk[:ng] {
			get(k)
		}
		t2 := time.Now()
		setT += t1.Sub(t0)
		getT += t2.Sub(t1)
		gets, sets = gets+ng, sets+ns
		end := r.tr.now()
		spans = append(spans, span{Name: name + ".batch", Start: end - int64(t2.Sub(t0)), End: end, Parent: 0, Req: -1})
	}
	spans[0].End = r.tr.now()
	r.tr.add(spans...)
	if gets > 0 {
		getNs = float64(getT) / float64(gets)
	}
	if sets > 0 {
		setNs = float64(setT) / float64(sets)
	}
	return getNs, setNs, gets, sets
}

// mixNs is the per-op cost of a rung over the stream's own mix.
func mixNs(getNs, setNs float64, gets, sets int) float64 {
	return (getNs*float64(gets) + setNs*float64(sets)) / float64(gets+sets)
}

// partitionRung prices partition.Store: Lookup+Decref and
// Insert+copy+MarkReady+Decref, with no ring, goroutine or lock around it.
func partitionRung(r *rungInput, l *layers) (float64, error) {
	st, err := partition.NewStore(partition.Config{CapacityBytes: r.cap, Seed: 1})
	if err != nil {
		return 0, err
	}
	val := make([]byte, r.w.spec.MaxValueSize())
	var bad error
	set := func(k uint64) {
		v := r.w.spec.FillValue(k, val)
		e := st.Insert(k, len(v))
		if e == nil {
			bad = fmt.Errorf("partition: key %d: no space", k)
			return
		}
		copy(e.Value(), v)
		st.MarkReady(e)
		st.Decref(e)
	}
	get := func(k uint64) {
		e := st.Lookup(k)
		if e == nil {
			if r.w.mustHit {
				bad = fmt.Errorf("partition: key %d: miss", k)
			}
			return
		}
		if !r.w.spec.CheckValue(k, e.Value()) {
			bad = fmt.Errorf("partition: key %d: wrong value", k)
		}
		st.Decref(e)
	}
	for _, k := range r.keys {
		set(k)
	}
	before := st.Stats()
	getNs, setNs, gets, sets := r.timed("partition", get, set)
	after := st.Stats()
	if bad != nil {
		return 0, bad
	}
	l.set("partition.lookup_ns", getNs, fmt.Sprintf("%d lookups", gets))
	l.set("partition.insert_ns", setNs, fmt.Sprintf("%d inserts", sets))
	if d := after.Inserts - before.Inserts; d > 0 {
		l.set("partition.evictions_per_insert", float64(after.Evictions-before.Evictions)/float64(d), "")
	}
	// Live user bytes are estimated as elements × the mixture's mean value
	// size: sizes are a hash of the key and eviction follows recency, so
	// the live population keeps the mixture.
	mean := float64(r.w.spec.WorkingSetBytes) / float64(r.w.numKeys())
	if after.Elements > 0 {
		l.set("partition.bytes_per_user_byte", float64(st.UsedBytes())/(float64(after.Elements)*mean),
			"arena bytes in use ÷ (live elements × mean value size)")
	}
	return mixNs(getNs, setNs, gets, sets), nil
}

// ringRung prices the SPSC ring by itself: a request ring and a reply
// ring between two goroutines, messages of one machine word, eight to a
// cache line. Round trips go in line-sized batches, as core's do.
func ringRung(r *rungInput, l *layers) (float64, error) {
	const line, msgs = 8, 1 << 21
	req, err := ring.NewSPSC[uint64](ring.DefaultCapacity, line)
	if err != nil {
		return 0, err
	}
	rep, err := ring.NewSPSC[uint64](ring.DefaultCapacity, line)
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the "server": echo every request
		defer wg.Done()
		var buf [line]uint64
		for seen := 0; seen < msgs; {
			n := req.ConsumeBatch(buf[:])
			if n == 0 {
				runtime.Gosched()
				continue
			}
			for _, v := range buf[:n] {
				rep.ProduceSpin(v)
			}
			rep.Flush()
			seen += n
		}
	}()
	start := r.tr.now()
	t0 := time.Now()
	var buf [line]uint64
	for sent := uint64(0); sent < msgs; sent += line {
		for i := uint64(0); i < line; i++ {
			req.ProduceSpin(sent + i)
		}
		req.Flush()
		for got := 0; got < line; {
			n := rep.ConsumeBatch(buf[:])
			if n == 0 {
				runtime.Gosched()
			}
			got += n
		}
	}
	rt := float64(time.Since(t0)) / msgs
	wg.Wait()
	r.tr.add(span{Name: "ring.roundtrip", Start: start, End: r.tr.now(), Parent: -1, Req: -1})
	l.set("ring.roundtrip_ns", rt, "request→reply per message, 8-message batches")

	// Free-running: the producer never flushes by hand, so publication is
	// the ring's own per-line policy; count what each consume call finds.
	wg.Add(1)
	var calls int
	go func() {
		defer wg.Done()
		var big [256]uint64
		for seen := 0; seen < msgs; {
			n := req.ConsumeBatch(big[:])
			if n == 0 {
				runtime.Gosched()
				continue
			}
			calls++
			seen += n
		}
	}()
	for i := uint64(0); i < msgs; i++ {
		req.ProduceSpin(i)
	}
	req.Flush()
	wg.Wait()
	l.set("ring.msgs_per_flush", float64(msgs)/float64(calls), "free-running producer: messages per non-empty ConsumeBatch")
	return rt, nil
}

// coreRung prices the whole in-process path — core.Client over rings to
// the server goroutines owning the partitions — with one client
// pipelining w.window asynchronous ops, then the synchronous Get that
// pays a wake-up per op.
func coreRung(r *rungInput, l *layers, partNs, ringNs float64) error {
	w := *r.w.inProcess()
	w.capacity = r.cap
	t, err := core.New(core.Config{Partitions: procs, MaxClients: 1, CapacityBytes: w.capacity, Seed: 1})
	if err != nil {
		return err
	}
	defer t.Close()
	ic, err := newInprocClient(t, 0, &w, r.stream, nil)
	if err != nil {
		return err
	}
	defer ic.c.Close()
	if err := ic.preload(r.keys); err != nil {
		return err
	}
	st := newGenStats(0, false, nil)
	ic.c.SetPipeline(w.window)
	before := t.Stats()
	root := span{Name: "core.async", Start: r.tr.now(), Parent: -1, Req: -1}
	spans := []span{root}
	t0 := time.Now()
	for i := 0; i < len(r.stream); i += rungBatch {
		b0 := r.tr.now()
		for _, o := range r.stream[i:min(i+rungBatch, len(r.stream))] {
			ic.issue(o, 0, st)
		}
		ic.c.FlushAll()
		ic.c.Poll()
		ic.harvest(0, st)
		spans = append(spans, span{Name: "core.async.batch", Start: b0, End: r.tr.now(), Parent: 0, Req: -1})
	}
	ic.c.WaitAll()
	ic.harvest(0, st)
	async := float64(time.Since(t0)) / float64(len(r.stream))
	after := t.Stats()
	spans[0].End = r.tr.now()
	r.tr.add(spans...)
	if st.err != nil {
		return fmt.Errorf("core: %w", st.err)
	}
	l.set("core.async_ns_per_op", async, fmt.Sprintf("1 client, %d in flight, %d partitions", w.window, procs))
	l.set("core.self_ns", async-partNs-ringNs, "async_ns_per_op − partition (stream mix) − ring.roundtrip_ns; wall time, so negative where the server goroutines' partition work overlaps")
	l.set("core.msgs_per_op", float64(after.Messages-before.Messages)/float64(len(r.stream)), "")

	const syncGets = 50_000
	var dst []byte
	t0 = time.Now()
	n := 0
	for _, o := range r.stream {
		if o.isSet() {
			continue
		}
		var hit bool
		dst, hit = ic.c.Get(o.key(), dst[:0])
		if hit && !w.spec.CheckValue(o.key(), dst) || !hit && w.mustHit {
			return fmt.Errorf("core: sync Get of key %d: wrong answer", o.key())
		}
		if n++; n == syncGets {
			break
		}
	}
	l.set("core.sync_get_ns", float64(time.Since(t0))/float64(n), fmt.Sprintf("%d synchronous Gets, one in flight", n))
	return nil
}

// idleSweepFrac is the table's idle polling as a share of its polling
// outcomes: empty sweeps ÷ (empty sweeps + messages handled).
func idleSweepFrac(idle, msgs float64) float64 {
	if idle+msgs == 0 {
		return 0
	}
	return idle / (idle + msgs)
}

// lockhashCalls returns the two calls a LOCKHASH thread makes, checking
// every answer; the first wrong one is left in *bad. Each thread needs
// its own pair: they carry the thread's value buffers.
func lockhashCalls(t *lockhash.Table, w *workloadDef, bad *error) (get, set func(k uint64)) {
	val := make([]byte, w.spec.MaxValueSize())
	var dst []byte
	set = func(k uint64) {
		if !t.Put(k, w.spec.FillValue(k, val)) {
			*bad = fmt.Errorf("lockhash: key %d: no space", k)
		}
	}
	get = func(k uint64) {
		var hit bool
		dst, hit = t.Get(k, dst[:0])
		if hit && !w.spec.CheckValue(k, dst) || !hit && w.mustHit {
			*bad = fmt.Errorf("lockhash: key %d: wrong answer", k)
		}
	}
	return get, set
}

// lockhashRung prices the paper's baseline on the same stream: direct
// calls under per-partition spinlocks, one thread.
func lockhashRung(r *rungInput, l *layers) error {
	t, err := lockhash.New(lockhash.Config{CapacityBytes: r.cap, Seed: 1})
	if err != nil {
		return err
	}
	var bad error
	get, set := lockhashCalls(t, r.w, &bad)
	for _, k := range r.keys {
		set(k)
	}
	getNs, setNs, gets, sets := r.timed("lockhash", get, set)
	if bad != nil {
		return bad
	}
	l.set("lockhash.ns_per_op", mixNs(getNs, setNs, gets, sets), "1 thread, same stream; a baseline, not a claim")
	return nil
}

// lockhashPair runs LOCKHASH the way the closed phase runs CPHASH — procs
// threads, each replaying its own stream — and returns ops/s.
func lockhashPair(w *workloadDef, in *inputs, dur time.Duration) (float64, error) {
	t, err := lockhash.New(lockhash.Config{CapacityBytes: w.capacity, Seed: 1})
	if err != nil {
		return 0, err
	}
	var bad error
	_, set := lockhashCalls(t, w, &bad)
	for _, keys := range in.keys {
		for _, k := range keys {
			set(k)
		}
	}
	if bad != nil {
		return 0, bad
	}
	counts := make([]int, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			get, set := lockhashCalls(t, w, &errs[g])
			stream := in.streams[g]
			for i := 0; ; i++ {
				if i%rungBatch == 0 && time.Since(t0) >= dur {
					counts[g] = i
					return
				}
				if o := stream[i%len(stream)]; o.isSet() {
					set(o.key())
				} else {
					get(o.key())
				}
			}
		}(g)
	}
	wg.Wait()
	el := time.Since(t0).Seconds()
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / el, errors.Join(errs...)
}

// countWriter counts the bytes a bufio.Writer flushes into it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// protocolRung prices the native codec in memory: the requests of the
// stream through protocol.WriteRequest, and the lookup responses they
// would elicit (size | value, as the package documents the frame)
// through protocol.ReadLookupResponse.
func protocolRung(r *rungInput, l *layers) error {
	cw := &countWriter{}
	bw := bufio.NewWriterSize(cw, 64<<10)
	val := make([]byte, r.w.spec.MaxValueSize())
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := r.tr.now()
	t0 := time.Now()
	for _, o := range r.stream {
		req := protocol.Request{Op: protocol.OpLookup, Key: o.key()}
		if o.isSet() {
			req.Op, req.Value = protocol.OpInsert, r.w.spec.FillValue(o.key(), val)
		}
		if err := protocol.WriteRequest(bw, req); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	enc := time.Since(t0)
	r.tr.add(span{Name: "protocol.encode", Start: start, End: r.tr.now(), Parent: -1, Req: -1})

	// Responses are built and decoded a chunk at a time to bound memory.
	const chunk = 1 << 16
	var frames []byte
	var dec time.Duration
	var respBytes int64
	gets := 0
	rd := make([]byte, 0, r.w.spec.MaxValueSize())
	br := bufio.NewReaderSize(nil, 64<<10)
	start = r.tr.now()
	for i := 0; i < len(r.stream); i += chunk {
		frames = frames[:0]
		var keys []uint64
		for _, o := range r.stream[i:min(i+chunk, len(r.stream))] {
			if o.isSet() {
				continue
			}
			v := r.w.spec.FillValue(o.key(), val)
			frames = binary.LittleEndian.AppendUint32(frames, uint32(len(v)))
			frames = append(frames, v...)
			keys = append(keys, o.key())
		}
		respBytes += int64(len(frames))
		br.Reset(bytes.NewReader(frames))
		t0 = time.Now()
		for _, k := range keys {
			v, hit, err := protocol.ReadLookupResponse(br, rd[:0])
			if err != nil {
				return err
			}
			if !hit || !r.w.spec.CheckValue(k, v) {
				return fmt.Errorf("protocol: key %d: decoded value differs from the encoded one", k)
			}
		}
		dec += time.Since(t0)
		gets += len(keys)
	}
	r.tr.add(span{Name: "protocol.decode", Start: start, End: r.tr.now(), Parent: -1, Req: -1})
	runtime.ReadMemStats(&ms1)
	n := float64(len(r.stream))
	l.set("protocol.encode_req_ns", float64(enc)/n, "per request, stream mix")
	if gets > 0 {
		l.set("protocol.decode_resp_ns", float64(dec)/float64(gets), "per lookup response, value checked")
	}
	l.set("protocol.bytes_per_op", float64(cw.n+respBytes)/n, "request + response bytes")
	// The response frames built here are the benchmark's own allocations,
	// a few per 64 Ki-op chunk; they are counted, and are far below one per op.
	l.set("protocol.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/n, "heap allocations during encode + decode ÷ ops")
	return nil
}

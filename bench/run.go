package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"cphash/internal/cluster"
	"cphash/internal/core"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

// plan fixes the durations of one run from its -seconds budget: 40 % in
// the closed phase, the rest split over the three open steps.
type plan struct {
	warmup, closed, step time.Duration
}

func planFor(seconds int) plan {
	closed := (seconds*2 + 2) / 5
	if closed < 2 {
		closed = 2
	}
	step := (seconds - closed) / 3
	if step < 1 {
		step = 1
	}
	return plan{warmup: time.Second, closed: time.Duration(closed) * time.Second, step: time.Duration(step) * time.Second}
}

// inputs are everything derived from the seed before timing starts.
type inputs struct {
	streams [][]op
	units   [][]float64
	keys    [][]uint64 // each generator's part of the key universe
}

// makeInputs pre-generates the op streams, Poisson schedules and preload
// lists. addrs are the instance addresses of a durable system, whose
// keys are routed the way a cluster client routes them.
func makeInputs(w *workloadDef, seed uint64, addrs []string) (*inputs, error) {
	in := &inputs{}
	var ring *cluster.Ring
	if w.durable {
		var err error
		if ring, err = cluster.New(addrs); err != nil {
			return nil, err
		}
	}
	for g := 0; g < procs; g++ {
		var keep keyFilter
		if ring != nil {
			mine := addrs[g%len(addrs)]
			keep = func(k uint64) bool { return ring.NodeOf(k) == mine }
		}
		in.streams = append(in.streams, genStream(w.spec, seed, g, procs, streamLen, w.gap, keep))
		in.units = append(in.units, poissonUnit(seed, g, streamLen))
		in.keys = append(in.keys, universe(w.spec, g, procs, keep))
	}
	return in, nil
}

// target is a system under test that has been set up: either an
// in-process table with its clients or a cpserver with its connections.
type target struct {
	w       *workloadDef
	launch  launch
	srv     *server
	datadir string
	table   *core.Table
	clients []*inprocClient
	conns   []*wireConn
}

// newTable builds the in-process system for w.
func newTable(w *workloadDef) (*core.Table, error) {
	return core.New(core.Config{Partitions: procs, MaxClients: procs, CapacityBytes: w.capacity, Seed: 1})
}

// setUp brings the system up and preloads every key once. ports, when
// non-nil, is an earlier server whose addresses are reused.
func setUp(p paths, w *workloadDef, in *inputs, l launch, ports *server) (*target, error) {
	tg := &target{w: w, launch: l}
	if w.kind == inProcess {
		t, err := newTable(w)
		if err != nil {
			return nil, err
		}
		tg.table = t
		for g := 0; g < procs; g++ {
			ic, err := newInprocClient(t, g, w, in.streams[g], in.units[g])
			if err != nil {
				return nil, err
			}
			tg.clients = append(tg.clients, ic)
		}
		return tg, tg.each(func(g int) error { return tg.clients[g].preload(in.keys[g]) })
	}
	if l.durable {
		d, err := tempDir(p, "data-")
		if err != nil {
			return nil, err
		}
		l.datadir, tg.datadir = d, d
		tg.launch = l
	}
	srv, err := start(p, l, ports)
	if err != nil {
		return nil, err
	}
	tg.srv = srv
	if err := tg.connect(in, w.kind == textWire); err != nil {
		tg.close()
		return nil, err
	}
	if err := tg.preload(in); err != nil {
		tg.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return tg, nil
}

// connect opens one connection per generator: to its own instance when
// there are several, over text when asked.
//
// kvserver hands a new connection to its least loaded worker, first
// worker on a tie. The two measured connections must land on the two
// workers on every run, or throughput is a toss-up (mc_text: 36 k or
// 50 k ops/s). So connect waits until the start-up probes' connections
// are gone, and completes one request on each connection — which, behind
// the text front-end, is what proves its upstream connection is counted —
// before opening the next.
func (tg *target) connect(in *inputs, text bool) error {
	for _, c := range tg.conns {
		c.c.Close()
	}
	tg.conns = nil
	for wait := time.Now(); time.Since(wait) < 2*time.Second; time.Sleep(time.Millisecond) {
		sc, err := tg.srv.scrape()
		if err != nil {
			return err
		}
		if sc.val["cphash_server_active_connections"] == 0 {
			break
		}
	}
	for g := 0; g < procs; g++ {
		addr := tg.srv.addrs[g%len(tg.srv.addrs)]
		if text {
			addr = tg.srv.mcAddrs[g%len(tg.srv.mcAddrs)]
		}
		wc, err := dialWire(addr, text, tg.w, in.streams[g], in.units[g])
		if err != nil {
			return err
		}
		tg.conns = append(tg.conns, wc)
		if _, err := wc.getAll([]uint64{ownKey(0, g)}); err != nil { // hit or miss, either will do
			return err
		}
	}
	return nil
}

// each runs f once per generator, concurrently, and joins the errors.
func (tg *target) each(f func(g int) error) error {
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = f(g)
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// textPreloaders is how many extra connections preload a text system:
// the front-end serves one command per connection at a time, so only
// connections add speed.
const textPreloaders = 32

// preload SETs every key once and reads a sample back.
func (tg *target) preload(in *inputs) error {
	if tg.conns[0].text {
		var parts [][]uint64
		for _, keys := range in.keys {
			n := (len(keys) + textPreloaders/procs - 1) / (textPreloaders / procs)
			for len(keys) > 0 {
				m := min(n, len(keys))
				parts = append(parts, keys[:m])
				keys = keys[m:]
			}
		}
		errs := make([]error, len(parts))
		var wg sync.WaitGroup
		for i, part := range parts {
			wg.Add(1)
			go func(i int, part []uint64) {
				defer wg.Done()
				wc, err := dialWire(tg.srv.mcAddrs[0], true, tg.w, nil, nil)
				if err != nil {
					errs[i] = err
					return
				}
				defer wc.c.Close()
				// Read back on the connection that wrote: the front-end
				// acknowledges a set before the table has applied it,
				// and only the same connection is sure to see it.
				if errs[i] = wc.preload(part); errs[i] == nil {
					errs[i] = wc.readBack(part)
				}
			}(i, part)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	return tg.each(func(g int) error {
		if err := tg.conns[g].preload(in.keys[g]); err != nil {
			return err
		}
		return tg.conns[g].readBack(in.keys[g])
	})
}

// preload SETs keys in windows of 128 and waits for each window.
func (wc *wireConn) preload(keys []uint64) error {
	st := newGenStats(0, false, nil)
	t0 := time.Now()
	_ = wc.c.SetReadDeadline(time.Now().Add(2 * time.Minute))
	for i, k := range keys {
		if err := wc.send(op(k)|opSetBit, 0, st); err != nil {
			return err
		}
		if wc.text && (i%128 == 127 || i == len(keys)-1) {
			if err := wc.flush(st); err != nil {
				return err
			}
			for wc.inflight() > 0 {
				if err := wc.recv(t0, st); err != nil {
					return err
				}
			}
		}
		if !wc.text && wc.inflight() >= maxInflight {
			wc.head.Store(wc.tail.Load()) // silent INSERTs: nothing to wait for yet
		}
	}
	wc.head.Store(wc.tail.Load())
	return wc.flush(st)
}

// readBack GETs every 512th key. Behind the SETs on the same connection,
// its replies also prove that the whole preload has been applied.
func (wc *wireConn) readBack(keys []uint64) error {
	var sample []uint64
	for i := 0; i < len(keys); i += 512 {
		sample = append(sample, keys[i])
	}
	st, err := wc.getAll(sample)
	if err != nil {
		return err
	}
	return st.err
}

func (tg *target) close() {
	for _, c := range tg.conns {
		c.c.Close()
	}
	if tg.srv != nil {
		tg.srv.stop(true)
	}
	if tg.datadir != "" {
		removeTemp(tg.datadir)
	}
	if tg.table != nil {
		for _, c := range tg.clients {
			c.c.Close()
		}
		tg.table.Close()
		tg.table, tg.clients = nil, nil
		// Hand the arena back to the OS so that the next set-up faults
		// its memory in afresh, as the first one did.
		debug.FreeOSMemory()
	}
}

// phase runs one closed (rate 0) or open phase on every generator.
func (tg *target) phase(dur time.Duration, rate float64, tr *tracer) *phaseResult {
	// An open phase on the wire runs a sender and a receiver per
	// connection, and a sender sleeping in nanosleep keeps its P: with
	// only procs Ps the receivers (and the network poller) would wait for
	// the runtime's 10 ms retake. The table workload keeps procs Ps, as
	// the system under test is then this process.
	if rate > 0 && tg.table == nil {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2 * procs))
	}
	gens := make([]*genStats, procs)
	for g := range gens {
		gens[g] = newGenStats(dur, rate > 0, tr)
	}
	perGen := rate / procs
	t0 := time.Now()
	_ = tg.each(func(g int) error {
		switch {
		case tg.table != nil:
			tg.clients[g].run(t0, dur, tg.w.window, perGen, gens[g])
		case rate > 0:
			tg.conns[g].open(t0, dur, perGen, gens[g])
		default:
			tg.conns[g].closed(t0, dur, tg.w.window, gens[g])
		}
		return nil
	})
	return mergeStats(gens, rate)
}

// cpu returns the CPU seconds the system under test has used: the
// cpserver process, or this process when the table is in it.
func (tg *target) cpu() float64 {
	if tg.srv == nil {
		return selfCPU()
	}
	s, err := procCPU(tg.srv.pid())
	if err != nil {
		return 0
	}
	return s
}

func (tg *target) rssMiB() float64 {
	pid := 0
	if tg.srv != nil {
		pid = tg.srv.pid()
	}
	m, err := peakRSSMiB(pid)
	if err != nil {
		return 0
	}
	return m
}

// launch is w's system as shipped: every flag group on.
func (w *workloadDef) launch() launch {
	flags := append(append(append([]string{}, w.flags...), w.persistFlags...), w.replicaFlags...)
	return launch{instances: w.instances, capacity: w.capacity, flags: flags, durable: w.durable, memcached: w.kind == textWire}
}

// outcome is what one run reports.
type outcome struct {
	metrics           map[string]float64
	attempted, failed uint64
	err               error // first failed request, if any
	notes             []string
}

func (o *outcome) count(r *phaseResult) {
	o.attempted += r.sched
	o.failed += r.failed
	if o.err == nil {
		o.err = r.err
	}
}

// pickPorts reserves the loopback ports of w's system (nil in-process).
// They are fixed before the inputs are made, because a durable system's
// key routing depends on its instance addresses, and kept across the
// repeated set-ups of one run.
func pickPorts(w *workloadDef) (*server, error) {
	if w.kind == inProcess {
		return nil, nil
	}
	base, err := freePorts(w.instances)
	if err != nil {
		return nil, err
	}
	sp, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	ports := &server{addrs: portAddrs(base, w.instances), stats: portAddrs(sp, 1)[0]}
	if w.kind == textWire {
		mb, err := freePorts(w.instances)
		if err != nil {
			return nil, err
		}
		ports.mcAddrs = portAddrs(mb, w.instances)
	}
	return ports, nil
}

// setUpMeasured sets the system up setupReps times on the same ports and
// returns the last one with the median set-up time.
func setUpMeasured(p paths, w *workloadDef, seed uint64) (*target, *inputs, setupTimes, error) {
	ports, err := pickPorts(w)
	if err != nil {
		return nil, nil, setupTimes{}, err
	}
	var addrs []string
	if ports != nil {
		addrs = ports.addrs
	}
	in, err := makeInputs(w, seed, addrs)
	if err != nil {
		return nil, nil, setupTimes{}, err
	}
	var tg *target
	times := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		if tg != nil {
			tg.close()
		}
		t0 := time.Now()
		if tg, err = setUp(p, w, in, w.launch(), ports); err != nil {
			return nil, nil, setupTimes{}, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return tg, in, setupTimes{median(times), times}, nil
}

type setupTimes struct {
	median float64
	all    []float64
}

// runUntraced measures every end-to-end metric of w.
func runUntraced(p paths, w *workloadDef, seed uint64, pl plan) (*outcome, error) {
	tg, _, setup, err := setUpMeasured(p, w, seed)
	if err != nil {
		return nil, err
	}
	defer tg.close()
	out := &outcome{metrics: map[string]float64{"setup_s": setup.median}}
	out.notes = append(out.notes, fmt.Sprintf("set-up times %.3f s", setup.all))
	out.count(tg.phase(pl.warmup, 0, nil))

	cpu0 := tg.cpu()
	closed := tg.phase(pl.closed, 0, nil)
	cpu1 := tg.cpu()
	out.count(closed)
	out.notes = append(out.notes, fmt.Sprintf("closed-phase completions per 1 s slice %d", closed.done))
	out.metrics["ops_per_s"] = closed.sliceRate()
	if closed.completed > 0 {
		out.metrics["cpu_us_per_op"] = (cpu1 - cpu0) * 1e6 / float64(closed.completed)
	}
	gets, hits := closed.gets, closed.hits

	// The whole open phase runs at r1, the one rate whose latency repeats
	// from run to run on this host; the traced run climbs r1..r3.
	open := 3 * pl.step
	c0, g0 := tg.cpu(), selfCPU()
	r := tg.phase(open, w.rates[0], nil)
	sysCores, genCores := (tg.cpu()-c0)/open.Seconds(), (selfCPU()-g0)/open.Seconds()
	out.count(r)
	gets, hits = gets+r.gets, hits+r.hits
	out.metrics["lat_p50_us"] = r.sliceQuantileUs(0.5)
	out.notes = append(out.notes, fmt.Sprintf(
		"rate %.3g/s: p50 %.1f us, p99 %.1f us (>=%d samples beyond it per slice), completed %d of %d, sent late p99 %.1f us, backlog grew %v; CPUs busy: system %.2f, this process %.2f",
		r.rate, r.sliceQuantileUs(0.5), r.sliceQuantileUs(0.99), r.beyond(0.99), r.completed, r.sched, r.late.quantile(0.99)/1e3, r.backlogGrew(), sysCores, genCores))
	if gets > 0 {
		out.metrics["hit_frac"] = float64(hits) / float64(gets)
	}
	out.metrics["rss_mb"] = tg.rssMiB()
	return out, nil
}

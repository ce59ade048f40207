package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cphash/internal/core"
)

// reading is one look at the system's counters: CPU of the system and of
// this process, and either a /metrics + /debug/vars scrape (a server) or
// the table's and the runtime's own counters (in-process).
type reading struct {
	at       time.Time
	cpu, gen float64
	sc       *scrape
	ms       runtime.MemStats
	table    core.Stats
}

func (tg *target) read() (reading, error) {
	rd := reading{at: time.Now(), cpu: tg.cpu(), gen: selfCPU()}
	if tg.srv == nil {
		runtime.ReadMemStats(&rd.ms)
		rd.table = tg.table.Stats()
		return rd, nil
	}
	var err error
	if rd.sc, err = tg.srv.scrape(); err != nil {
		return rd, err
	}
	rd.ms, err = tg.srv.memStats()
	return rd, err
}

// window is one phase with a reading on either side.
type window struct {
	a, b reading
	r    *phaseResult
}

func (tg *target) observe(dur time.Duration, rate float64, tr *tracer, out *outcome) (window, error) {
	a, err := tg.read()
	if err != nil {
		return window{}, err
	}
	r := tg.phase(dur, rate, tr)
	out.count(r)
	b, err := tg.read()
	return window{a, b, r}, err
}

func (w window) seconds() float64 { return w.b.at.Sub(w.a.at).Seconds() }

func (w window) perOp(delta float64) float64 {
	if w.r.completed == 0 {
		return 0
	}
	return delta / float64(w.r.completed)
}

func (w window) cpuPerOpUs() float64 { return w.perOp((w.b.cpu - w.a.cpu) * 1e6) }

// counter is the growth of a /metrics counter over the window (0 for a
// family the server does not export, and in-process).
func (w window) counter(name string) float64 {
	if w.a.sc == nil {
		return 0
	}
	return delta(w.a.sc, w.b.sc, name)
}

func (w window) sets() float64 { return float64(w.r.completed - w.r.gets) }

// clockCost calibrates the tracer's clock: the mean cost of one reading.
func clockCost(tr *tracer) float64 {
	const n = 1 << 20
	t0 := time.Now()
	var sink int64
	for i := 0; i < n; i++ {
		sink += tr.now()
	}
	_ = sink
	return float64(time.Since(t0)) / n
}

// runTraced produces every per-layer metric of w and writes the spans.
func runTraced(p paths, w *workloadDef, seed uint64, pl plan) (*outcome, error) {
	tr := newTracer()
	l := newLayers()
	out := &outcome{metrics: map[string]float64{}}
	l.set("trace.clock_ns", clockCost(tr), "one reading of the span clock")

	ports, err := pickPorts(w)
	if err != nil {
		return nil, err
	}
	var addrs []string
	if ports != nil {
		addrs = ports.addrs
	}
	in, err := makeInputs(w, seed, addrs)
	if err != nil {
		return nil, err
	}
	tg, err := setUp(p, w, in, w.launch(), ports)
	if err != nil {
		return nil, err
	}
	defer func() { tg.close() }()
	out.count(tg.phase(pl.warmup, 0, nil))

	dur := max(pl.closed/2, 2*time.Second)
	base, err := tg.observe(dur, 0, nil, out)
	if err != nil {
		return nil, err
	}
	var lag []float64
	stopLag := tg.sampleLag(&lag)
	traced, err := tg.observe(dur, 0, tr, out)
	stopLag()
	if err != nil {
		return nil, err
	}
	// Throughput drifts by several per cent from one phase to the next on
	// its own, so the traced phase is held against the untraced phases on
	// either side of it.
	after, err := tg.observe(dur, 0, nil, out)
	if err != nil {
		return nil, err
	}
	if ref := (base.r.sliceRate() + after.r.sliceRate()) / 2; ref > 0 {
		l.set("trace.overhead_frac", 1-traced.r.sliceRate()/ref,
			fmt.Sprintf("closed phase: traced %.4g ops/s against %.4g and %.4g ops/s untraced before and after", traced.r.sliceRate(), base.r.sliceRate(), after.r.sliceRate()))
	}
	systemLayers(l, w, base)

	// The open steps give the generator's own numbers at every frozen rate.
	lateP99, sentFrac, slo := 0.0, 1.0, 0.0
	var last window
	for i, rate := range w.rates {
		win, err := tg.observe(pl.step, rate, tr, out)
		if err != nil {
			return nil, err
		}
		last = win
		p50, p99 := win.r.sliceQuantileUs(0.5), win.r.sliceQuantileUs(0.99)
		late := win.r.late.quantile(0.99) / 1e3
		lateP99 = max(lateP99, late)
		if win.r.sched > 0 {
			sentFrac = min(sentFrac, float64(win.r.sent)/float64(win.r.sched))
		}
		out.notes = append(out.notes, fmt.Sprintf("rate %.3g/s: p50 %.1f us, p99 %.1f us, sent late p99 %.1f us, sent %d of %d", rate, p50, p99, late, win.r.sent, win.r.sched))
		if win.r.meetsSLO(w.p99LimitUs) {
			slo = rate
		}
		switch i {
		case 0:
			l.set("loadgen.lat_r1_p50_us", p50, fmt.Sprintf("open phase at %.3g/s", rate))
			l.set("loadgen.lat_r1_p99_us", p99, "")
			l.set("lat_p99_us", p99, fmt.Sprintf("at %.3g/s, where lat_p50_us is taken; median of 1 s slices", rate))
			if tg.srv != nil {
				l.set("core.idle_sweep_frac", idleSweepFrac(win.counter("cphash_table_idle_sweeps_total"), win.counter("cphash_table_messages_total")),
					fmt.Sprintf("server's table at %.3g/s: empty sweeps ÷ (empty sweeps + messages)", rate))
			}
		case 1:
			l.set("loadgen.lat_r2_p999_us", win.r.sliceQuantileUs(0.999), fmt.Sprintf("open phase at %.3g/s", rate))
		case 2:
			l.set("loadgen.lat_r3_p50_us", p50, fmt.Sprintf("open phase at %.3g/s", rate))
			l.set("loadgen.lat_r3_p99_us", p99, "")
		}
	}
	l.set("slo_rate_per_s", slo, fmt.Sprintf("highest of %.3g with p99 ≤ %.0f us, ≥ 99.9 %% completed and no growing backlog; 0 = none", w.rates, w.p99LimitUs))
	l.set("loadgen.late_p99_us", lateP99, "send time − due time, worst of the three rates")
	l.set("loadgen.sent_frac", sentFrac, "sent ÷ scheduled, worst of the three rates")

	whole := window{a: base.a, b: last.b, r: base.r}
	switch {
	case w.kind == inProcess:
		d := base.b.table
		l.set("core.idle_sweep_frac", idleSweepFrac(float64(d.IdleSweeps-base.a.table.IdleSweeps), float64(d.Messages-base.a.table.Messages)),
			"closed phase: empty sweeps ÷ (empty sweeps + messages)")
		lh, err := lockhashPair(w, in, dur/2)
		if err != nil {
			return nil, err
		}
		l.set("core.over_lockhash", base.r.sliceRate()/lh, fmt.Sprintf("closed-phase ops/s ÷ LOCKHASH's %.4g ops/s, %d threads each", lh, procs))
	case w.durable:
		durableLayers(l, base, whole, lag)
		if err := recoveryRung(p, tg, l, out); err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
	case w.kind == textWire:
		l.set("mctext.upstream_errors", whole.counter("cphash_mctext_upstream_errors_total"), "whole traced run")
		l.set("mctext.parse_errors", whole.counter("cphash_mctext_parse_errors_total"), "whole traced run")
		// The same server also listens natively: the same stream over the
		// binary protocol is what the front-end is priced against.
		if err := tg.connect(in, false); err != nil {
			return nil, err
		}
		if err := tg.preload(in); err != nil {
			return nil, err
		}
		out.count(tg.phase(pl.warmup, 0, nil))
		native, err := tg.observe(dur, 0, nil, out)
		if err != nil {
			return nil, err
		}
		l.set("mctext.delta_cpu_us_per_op", base.cpuPerOpUs()-native.cpuPerOpUs(),
			fmt.Sprintf("server CPU per op: text %.3f us − native %.3f us, same server, same stream", base.cpuPerOpUs(), native.cpuPerOpUs()))
		l.set("mctext.ops_frac_of_native", base.r.sliceRate()/native.r.sliceRate(),
			fmt.Sprintf("text %.4g ops/s ÷ native %.4g ops/s", base.r.sliceRate(), native.r.sliceRate()))
	}

	// The variants and the in-process rungs want the CPUs to themselves.
	tg.close()
	if w.kind != inProcess && w.kind != textWire {
		if err := variantLayers(p, w, in, ports, dur, pl, base, l, out); err != nil {
			return nil, err
		}
	}
	if err := rungLayers(w, in, tr, l); err != nil {
		return nil, err
	}

	l.na("protocol.", "the benchmark does not speak the native protocol on this workload")
	l.na("persist.", "cpserver runs without -datadir")
	l.na("replica.", "cpserver runs without -replicas")
	l.na("mctext.", "cpserver runs without -memcached")
	l.na("kvserver.", "no server process: the table is called in-process")
	l.na("obs.", "no server process to scrape")
	l.na("loadgen.cpu_us_per_op", "the generator threads are the table's client threads; their CPU is in cpu_us_per_op")
	l.na("lockhash.", "priced on table_uniform and wire_get90 only")
	l.na("core.over_lockhash", "the paper's ratio is taken in-process, on table_uniform")
	rows := l.table()
	name, err := tr.write(p, w.name, rows)
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("%d spans and the per-layer table written to %s", len(tr.spans), name))
	var na []string
	for _, row := range rows {
		if row.Value != nil {
			out.metrics[row.Metric] = *row.Value
		} else {
			na = append(na, row.Metric)
		}
	}
	// The result line has no way to say n/a; those metrics read 0 there.
	out.notes = append(out.notes, fmt.Sprintf("n/a on this workload, printed as 0 (reasons in the trace file): %s", strings.Join(na, " ")))
	return out, nil
}

// systemLayers fills what a closed-phase window says about the system as
// a whole: the server's batching and own latency, its runtime, the
// scrape, and the generator's CPU share.
func systemLayers(l *layers, w *workloadDef, base window) {
	l.set("runtime.allocs_per_op", base.perOp(float64(base.b.ms.Mallocs-base.a.ms.Mallocs)), "heap allocations of the system's process ÷ ops, closed phase")
	l.set("runtime.gc_pause_p99_us", gcPauseP99(&base.a.ms, &base.b.ms), fmt.Sprintf("%d collections in the closed phase", base.b.ms.NumGC-base.a.ms.NumGC))
	l.set("runtime.heap_mb", float64(base.b.ms.HeapAlloc)/(1<<20), "HeapAlloc after the closed phase")
	if base.a.sc == nil {
		l.set("core.msgs_per_op", base.perOp(float64(base.b.table.Messages-base.a.table.Messages)), "closed phase, 2 clients")
		return
	}
	l.set("loadgen.cpu_us_per_op", base.perOp((base.b.gen-base.a.gen)*1e6),
		fmt.Sprintf("this process; the server spent %.3f us per op", base.cpuPerOpUs()))
	if b := base.counter("cphash_server_batches_total"); b > 0 {
		l.set("kvserver.batch_mean", base.counter("cphash_server_requests_total")/b, "requests ÷ batches")
	}
	l.set("kvserver.server_p50_ns", bucketQuantile(base.a.sc, base.b.sc, "cphash_op_latency_ns", 0.5), "upper edge of the server's own histogram bucket")
	l.set("kvserver.server_p99_ns", bucketQuantile(base.a.sc, base.b.sc, "cphash_op_latency_ns", 0.99), "")
	l.set("obs.scrape_ms", float64(base.b.sc.took)/1e6, "one GET /metrics")
	l.set("obs.series", float64(base.b.sc.series), "sample lines in /metrics")
}

// durableLayers fills the counters persist and replica export.
func durableLayers(l *layers, base, whole window, lag []float64) {
	if s := base.sets(); s > 0 {
		l.set("persist.wal_bytes_per_set", base.counter("cphash_persist_record_bytes_total")/s, "WAL record bytes, all instances, ÷ client SETs")
		l.set("replica.frames_per_set", base.counter("cphash_replica_frames_sent_total")/s, "")
	}
	l.set("persist.fsyncs_per_s", base.counter("cphash_persist_fsyncs_total")/base.seconds(), "-sync interval, -syncevery 100ms, 2 instances")
	l.set("persist.barrier_wait_p99_ns", bucketQuantile(base.a.sc, base.b.sc, "cphash_persist_barrier_wait_ns", 0.99), "upper bucket edge; 0 = no barrier waits under -sync interval")
	l.set("persist.snapshots", whole.counter("cphash_persist_snapshots_total"), fmt.Sprintf("in %.0f s of traced run", whole.seconds()))
	l.set("replica.resyncs", whole.counter("cphash_replica_resyncs_total"), "whole traced run")
	if len(lag) > 0 {
		sort.Float64s(lag)
		l.set("replica.lag_p99_ms", lag[int(math.Ceil(0.99*float64(len(lag))))-1],
			fmt.Sprintf("cphash_replica_lag_ms, mean over instances, %d samples 100 ms apart in the traced closed phase", len(lag)))
	}
}

// sampleLag scrapes the replication lag gauge every 100 ms until the
// returned function is called. It is a no-op for a system without one.
func (tg *target) sampleLag(into *[]float64) (stop func()) {
	if tg.srv == nil || !tg.w.durable {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if sc, err := tg.srv.scrape(); err == nil {
					*into = append(*into, sc.val["cphash_replica_lag_ms"]/float64(len(tg.srv.addrs)))
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// recoveryRung kills the durable system, restarts it on its data
// directory, and reports how long until it answers a GET correctly and
// how many of the writes acknowledged well before the kill read back.
// SIGKILL leaves the OS page cache intact, so this prices replay, not
// the loss of unsynced data.
func recoveryRung(p paths, tg *target, l *layers, out *outcome) error {
	out.count(tg.phase(2*time.Second, 0, nil)) // ends with a fence: every SET was applied
	const perConn = 2048
	samples := make([][]uint64, len(tg.conns))
	for g, wc := range tg.conns {
		seen := map[uint64]bool{}
		for i := 1; i <= len(wc.stream) && len(samples[g]) < perConn; i++ {
			o := wc.stream[(wc.pos-i+len(wc.stream))%len(wc.stream)]
			if o.isSet() && !seen[o.key()] {
				seen[o.key()] = true
				samples[g] = append(samples[g], o.key())
			}
		}
	}
	time.Sleep(300 * time.Millisecond) // 3 × syncevery: the sample was acknowledged long before the kill
	old := tg.srv
	for _, c := range tg.conns {
		c.c.Close()
	}
	old.stop(true)
	t0 := time.Now()
	srv, err := start(p, tg.launch, old)
	if err != nil {
		return err
	}
	tg.srv = srv
	if err := tg.connect(&inputs{streams: make([][]op, procs), units: make([][]float64, procs)}, false); err != nil {
		return err
	}
	// Time to the first correct GET: ask for the sample until an instance
	// returns one of its values (a wrong value fails the run at once).
	var gets, hits uint64
	for g := range tg.conns {
		for {
			st, err := tg.conns[g].getAll(samples[g])
			if err != nil {
				return err
			}
			if st.err != nil {
				return st.err
			}
			if st.hits > 0 {
				if g == len(tg.conns)-1 {
					l.set("persist.recover_s", time.Since(t0).Seconds(), "SIGKILL → restart on the data directory → first correct GET on every instance")
				}
				gets, hits = gets+st.gets, hits+st.hits
				break
			}
			if time.Since(t0) > 30*time.Second {
				return fmt.Errorf("none of instance %d's %d most recent SETs readable 30 s after restart", g, len(samples[g]))
			}
			time.Sleep(time.Millisecond)
		}
	}
	l.set("persist.recovered_frac", float64(hits)/float64(gets), fmt.Sprintf("%d most recent distinct SETs, acknowledged ≥ 300 ms before the kill", gets))
	return nil
}

// getAll GETs keys and returns the counts; values are checked.
func (wc *wireConn) getAll(keys []uint64) (*genStats, error) {
	st := newGenStats(0, false, nil)
	t0 := time.Now()
	_ = wc.c.SetReadDeadline(time.Now().Add(30 * time.Second))
	for _, k := range keys {
		if err := wc.send(op(k), 0, st); err != nil {
			return st, err
		}
	}
	if err := wc.flush(st); err != nil {
		return st, err
	}
	for wc.inflight() > 0 {
		if err := wc.recv(t0, st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// variantLayers re-runs the closed phase against cpserver flag variants
// and an in-process table, and differences them against base.
func variantLayers(p paths, w *workloadDef, in *inputs, ports *server, dur time.Duration, pl plan, base window, l *layers, out *outcome) error {
	closedOn := func(wv *workloadDef, lv launch) (window, error) {
		tg, err := setUp(p, wv, in, lv, ports)
		if err != nil {
			return window{}, err
		}
		defer tg.close()
		out.count(tg.phase(pl.warmup, 0, nil))
		return tg.observe(dur, 0, nil, out)
	}

	inproc, err := closedOn(w.inProcess(), launch{})
	if err != nil {
		return fmt.Errorf("in-process variant: %w", err)
	}
	l.set("kvserver.self_cpu_us_per_op", base.cpuPerOpUs()-inproc.cpuPerOpUs(),
		fmt.Sprintf("server %.3f us − in-process core %.3f us per op, same stream (under persist and replica this includes them)", base.cpuPerOpUs(), inproc.cpuPerOpUs()))

	if !w.durable {
		lv := w.launch()
		lv.flags = []string{"-backend", "lockhash"}
		lh, err := closedOn(w, lv)
		if err != nil {
			return fmt.Errorf("lockhash variant: %w", err)
		}
		l.set("kvserver.lockhash_ops_per_s", lh.r.sliceRate(), "cpserver -backend lockhash, same closed phase; a baseline, not a claim")
		return nil
	}
	bare := w.launch()
	bare.flags, bare.durable = w.flags, false
	bw, err := closedOn(w, bare)
	if err != nil {
		return fmt.Errorf("bare variant: %w", err)
	}
	pers := w.launch()
	pers.flags = append(append([]string{}, w.flags...), w.persistFlags...)
	pw, err := closedOn(w, pers)
	if err != nil {
		return fmt.Errorf("persist-only variant: %w", err)
	}
	l.set("persist.delta_cpu_us_per_op", pw.cpuPerOpUs()-bw.cpuPerOpUs(),
		fmt.Sprintf("server CPU per op: with -datadir %.3f us − bare %.3f us", pw.cpuPerOpUs(), bw.cpuPerOpUs()))
	l.set("replica.delta_cpu_us_per_op", base.cpuPerOpUs()-pw.cpuPerOpUs(),
		fmt.Sprintf("server CPU per op: with -replicas 2 %.3f us − persist only %.3f us", base.cpuPerOpUs(), pw.cpuPerOpUs()))
	return nil
}

// rungLayers runs the in-process rungs that apply to w.
func rungLayers(w *workloadDef, in *inputs, tr *tracer, l *layers) error {
	r := newRungInput(w, in, tr)
	partNs, err := partitionRung(r, l)
	if err != nil {
		return err
	}
	ringNs, err := ringRung(r, l)
	if err != nil {
		return err
	}
	if err := coreRung(r, l, partNs, ringNs); err != nil {
		return err
	}
	if w.name == "table_uniform" || w.name == "wire_get90" {
		if err := lockhashRung(r, l); err != nil {
			return err
		}
	}
	if w.kind == nativeWire {
		return protocolRung(r, l)
	}
	return nil
}

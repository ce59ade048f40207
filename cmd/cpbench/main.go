// Command cpbench runs the CPHash paper's evaluation natively — real
// goroutines, real rings, real TCP — on the host machine. Absolute numbers
// depend on the host (on a laptop they will be far from an 80-core
// server); run cpsim for the topology-exact simulated versions.
//
//	cpbench -experiment fig5      # native throughput vs working-set size
//	cpbench -experiment fig8      # same, random eviction
//	cpbench -experiment fig9      # throughput vs table capacity
//	cpbench -experiment fig10     # throughput vs INSERT fraction
//	cpbench -experiment fig11     # throughput vs goroutine count
//	cpbench -experiment fig13     # CPSERVER vs LOCKSERVER over TCP
//	cpbench -experiment fig14     # servers vs memcached-style per core
//	cpbench -experiment ablation-ring   # §3.4: single slot vs buffered ring
//	cpbench -experiment ablation-batch  # §6.1: pipeline-depth sensitivity
//	cpbench -experiment hotpath   # wire-level GET/SET mix: qps, p99, allocs/op
//	cpbench -experiment replication # hotpath with a live follower: streaming overhead
//	cpbench -experiment obs       # scrape-driven server-side latency + slot heat
//	cpbench -experiment faults    # latency under injected faults + time-to-recovery
//	cpbench -experiment all
//
// The hotpath experiment is the steady-state perf gate: a 90/10 GET/SET
// mix over loopback TCP with allocation-free client loops, reporting
// whole-process allocations per operation from runtime.ReadMemStats
// deltas — the number that must stay at zero for the batching win to
// survive GC pressure. -bufsize sweeps the connection buffer size
// (Config.BufferSize on the server, DialBuf on the client); pass
// -bufsize sweep for a built-in sweep.
//
// With -json out.json, every measurement is also written as a
// machine-readable record — {experiment, config, qps, p99_ns} — so CI can
// archive a benchmark trajectory across commits (p99 is reported for the
// TCP experiments, which measure a latency distribution; table-level
// benchmarks record 0).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"cphash/internal/core"
	"cphash/internal/hotpath"
	"cphash/internal/kvserver"
	"cphash/internal/loadgen"
	"cphash/internal/lockhash"
	"cphash/internal/memcache"
	"cphash/internal/obs"
	"cphash/internal/partition"
	"cphash/internal/perf"
	"cphash/internal/persist"
	"cphash/internal/replica"
	"cphash/internal/ring"
	"cphash/internal/sizeparse"
	"cphash/internal/workload"
)

var (
	experiment = flag.String("experiment", "all", "experiment to run")
	ops        = flag.Int("ops", 200000, "operations per configuration")
	clients    = flag.Int("clients", 2, "client goroutines for table benchmarks")
	servers    = flag.Int("partitions", 2, "CPHASH partitions (server goroutines)")
	jsonOut    = flag.String("json", "", "write machine-readable results (JSON) to this file")
	bufSize    = flag.String("bufsize", "64KiB", "hotpath connection buffer size (server and client side), or \"sweep\"")
	faultSeed  = flag.Int64("fault-seed", 1, "chaos director + workload seed for the faults experiment")
)

// benchResult is one machine-readable measurement.
type benchResult struct {
	Experiment string         `json:"experiment"`
	Config     map[string]any `json:"config"`
	QPS        float64        `json:"qps"`
	P99Ns      int64          `json:"p99_ns"`
}

var results []benchResult

// record appends one measurement to the -json document.
func record(experiment string, cfg map[string]any, qps float64, p99 time.Duration) {
	results = append(results, benchResult{Experiment: experiment, Config: cfg, QPS: qps, P99Ns: int64(p99)})
}

// writeResults emits the -json document (nothing without the flag).
func writeResults() {
	if *jsonOut == "" {
		return
	}
	doc := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"ops":        *ops,
		"results":    results,
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(*jsonOut, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpbench: writing %s: %v\n", *jsonOut, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d results to %s\n", len(results), *jsonOut)
}

func main() {
	flag.Parse()
	fmt.Printf("host: GOMAXPROCS=%d — native mode; see cpsim for the paper-machine simulation\n\n",
		runtime.GOMAXPROCS(0))
	run := func(name string, f func()) {
		if *experiment == "all" || *experiment == name {
			f()
		}
	}
	known := map[string]bool{
		"fig5": true, "fig8": true, "fig9": true, "fig10": true, "fig11": true,
		"fig13": true, "fig14": true, "ablation-ring": true, "ablation-batch": true,
		"ablation-dynamic": true, "hotpath": true, "replication": true, "obs": true,
		"faults": true,
		"all":    true,
	}
	if !known[*experiment] {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	run("fig5", func() { figWS("fig5", "Figure 5 (native): throughput vs working set (LRU)", partition.EvictLRU) })
	run("fig8", func() { figWS("fig8", "Figure 8 (native): throughput vs working set (random)", partition.EvictRandom) })
	run("fig9", fig9)
	run("fig10", fig10)
	run("fig11", fig11)
	run("fig13", fig13)
	run("fig14", fig14)
	run("ablation-ring", ablationRing)
	run("ablation-batch", ablationBatch)
	run("ablation-dynamic", ablationDynamic)
	run("hotpath", hotpathExperiment)
	run("replication", replicationExperiment)
	run("obs", obsExperiment)
	run("faults", faultsExperiment)
	writeResults()
}

// runCPHash measures native CPHASH throughput for a spec.
func runCPHash(spec workload.Spec, capacityValues int, policy partition.EvictionPolicy, nClients, nParts, pipeline int) perf.Throughput {
	t := core.MustNew(core.Config{
		Partitions:    nParts,
		CapacityBytes: partition.CapacityForValues(capacityValues, spec.ValueSize),
		MaxClients:    nClients,
		Policy:        policy,
		Seed:          1,
	})
	defer t.Close()
	perClient := *ops / nClients
	done := make(chan struct{})
	start := time.Now()
	for ci := 0; ci < nClients; ci++ {
		go func(ci int) {
			defer func() { done <- struct{}{} }()
			c := t.MustClient(ci)
			defer c.Close()
			if pipeline > 0 {
				c.SetPipeline(pipeline)
			}
			sp := spec
			sp.Seed = spec.Seed + uint64(ci)*31 + 1
			g := workload.MustGenerator(sp)
			val := make([]byte, spec.ValueSize)
			inflight := make([]*core.Op, 0, 256)
			for i := 0; i < perClient; i++ {
				kind, key := g.Next()
				switch kind {
				case workload.Insert:
					// Synchronous put keeps the value buffer reusable.
					c.Put(key, sp.FillValue(key, val))
				case workload.Lookup:
					inflight = append(inflight, c.LookupAsync(key))
					if len(inflight) == cap(inflight) {
						c.WaitAll()
						for _, o := range inflight {
							c.Release(o)
						}
						inflight = inflight[:0]
					}
				}
			}
			c.WaitAll()
			for _, o := range inflight {
				c.Release(o)
			}
		}(ci)
	}
	for ci := 0; ci < nClients; ci++ {
		<-done
	}
	return perf.Throughput{Ops: int64(perClient * nClients), Elapsed: time.Since(start)}
}

// runLockHash measures native LOCKHASH throughput for a spec.
func runLockHash(spec workload.Spec, capacityValues int, policy partition.EvictionPolicy, nThreads int) perf.Throughput {
	t := lockhash.MustNew(lockhash.Config{
		CapacityBytes: partition.CapacityForValues(capacityValues, spec.ValueSize),
		Policy:        policy,
		Seed:          1,
	})
	perThread := *ops / nThreads
	done := make(chan struct{})
	start := time.Now()
	for ti := 0; ti < nThreads; ti++ {
		go func(ti int) {
			defer func() { done <- struct{}{} }()
			sp := spec
			sp.Seed = spec.Seed + uint64(ti)*31 + 1
			g := workload.MustGenerator(sp)
			val := make([]byte, spec.ValueSize)
			var dst []byte
			for i := 0; i < perThread; i++ {
				kind, key := g.Next()
				switch kind {
				case workload.Insert:
					t.Put(key, sp.FillValue(key, val))
				case workload.Lookup:
					dst, _ = t.Get(key, dst[:0])
				}
			}
		}(ti)
	}
	for ti := 0; ti < nThreads; ti++ {
		<-done
	}
	return perf.Throughput{Ops: int64(perThread * nThreads), Elapsed: time.Since(start)}
}

func figWS(key, title string, policy partition.EvictionPolicy) {
	fmt.Println("===", title, "===")
	fmt.Printf("%-10s %16s %16s %8s\n", "ws", "CPHash q/s", "LockHash q/s", "ratio")
	for _, ws := range []int{100 << 10, 1 << 20, 16 << 20} {
		spec := workload.Default(ws)
		cp := runCPHash(spec, spec.NumKeys(), policy, *clients, *servers, 0)
		lh := runLockHash(spec, spec.NumKeys(), policy, *clients+*servers)
		record(key, map[string]any{"design": "cphash", "ws": ws, "eviction": policy.String()}, cp.PerSecond(), 0)
		record(key, map[string]any{"design": "lockhash", "ws": ws, "eviction": policy.String()}, lh.PerSecond(), 0)
		fmt.Printf("%-10s %16.3g %16.3g %8.2f\n",
			perf.FormatBytes(ws), cp.PerSecond(), lh.PerSecond(), cp.PerSecond()/lh.PerSecond())
	}
	fmt.Println()
}

func fig9() {
	fmt.Println("=== Figure 9 (native): throughput vs table capacity (4 MB ws) ===")
	ws := 4 << 20
	spec := workload.Default(ws)
	fmt.Printf("%-10s %16s %16s\n", "capacity", "CPHash q/s", "LockHash q/s")
	for _, frac := range []int{1, 4, 16} {
		capVals := spec.NumKeys() / frac
		cp := runCPHash(spec, capVals, partition.EvictLRU, *clients, *servers, 0)
		lh := runLockHash(spec, capVals, partition.EvictLRU, *clients+*servers)
		record("fig9", map[string]any{"design": "cphash", "ws": ws, "capacityValues": capVals}, cp.PerSecond(), 0)
		record("fig9", map[string]any{"design": "lockhash", "ws": ws, "capacityValues": capVals}, lh.PerSecond(), 0)
		fmt.Printf("%-10s %16.3g %16.3g\n",
			perf.FormatBytes(capVals*8), cp.PerSecond(), lh.PerSecond())
	}
	fmt.Println()
}

func fig10() {
	fmt.Println("=== Figure 10 (native): throughput vs INSERT fraction (4 MB ws) ===")
	ws := 4 << 20
	fmt.Printf("%-8s %16s %16s\n", "insert", "CPHash q/s", "LockHash q/s")
	for _, ratio := range []float64{0, 0.3, 0.6, 1.0} {
		spec := workload.Default(ws)
		spec.InsertRatio = ratio
		cp := runCPHash(spec, spec.NumKeys(), partition.EvictLRU, *clients, *servers, 0)
		lh := runLockHash(spec, spec.NumKeys(), partition.EvictLRU, *clients+*servers)
		record("fig10", map[string]any{"design": "cphash", "ws": ws, "insertRatio": ratio}, cp.PerSecond(), 0)
		record("fig10", map[string]any{"design": "lockhash", "ws": ws, "insertRatio": ratio}, lh.PerSecond(), 0)
		fmt.Printf("%-8.1f %16.3g %16.3g\n", ratio, cp.PerSecond(), lh.PerSecond())
	}
	fmt.Println()
}

func fig11() {
	fmt.Println("=== Figure 11 (native): per-goroutine throughput vs goroutines (1 MB ws) ===")
	spec := workload.Default(1 << 20)
	fmt.Printf("%-10s %18s %18s\n", "goroutines", "CPHash q/s/thr", "LockHash q/s/thr")
	max := runtime.GOMAXPROCS(0) * 2
	if max < 4 {
		max = 4
	}
	for n := 2; n <= max; n *= 2 {
		cp := runCPHash(spec, spec.NumKeys(), partition.EvictLRU, n/2, n/2, 0)
		lh := runLockHash(spec, spec.NumKeys(), partition.EvictLRU, n)
		record("fig11", map[string]any{"design": "cphash", "goroutines": n, "qpsPerThread": cp.PerSecondPerThread(n)}, cp.PerSecond(), 0)
		record("fig11", map[string]any{"design": "lockhash", "goroutines": n, "qpsPerThread": lh.PerSecondPerThread(n)}, lh.PerSecond(), 0)
		fmt.Printf("%-10d %18.3g %18.3g\n", n, cp.PerSecondPerThread(n), lh.PerSecondPerThread(n))
	}
	fmt.Println()
}

// tcpThroughput measures a loadgen run against addrs, returning the
// queries/sec and the p99 of the per-window round-trip distribution.
func tcpThroughput(addrs []string, spec workload.Spec) (float64, time.Duration) {
	res, err := loadgen.Run(loadgen.Config{
		Addrs:      addrs,
		Conns:      4,
		Pipeline:   64,
		Spec:       spec,
		OpsPerConn: *ops / 8,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 0, 0
	}
	return res.Throughput(), time.Duration(res.Latency.Quantile(0.99))
}

func fig13() {
	fmt.Println("=== Figure 13 (native TCP): CPSERVER vs LOCKSERVER over working sets ===")
	fmt.Printf("%-10s %16s %16s %8s\n", "ws", "CPServer q/s", "LockServer q/s", "ratio")
	for _, ws := range []int{64 << 10, 1 << 20, 8 << 20} {
		spec := workload.Default(ws)
		capBytes := partition.CapacityForValues(spec.NumKeys(), spec.ValueSize)

		cpTable := core.MustNew(core.Config{Partitions: *servers, CapacityBytes: capBytes, MaxClients: 2, Seed: 1})
		cpSrv, err := kvserver.Serve(kvserver.Config{Addr: "127.0.0.1:0", Workers: 2, NewBackend: kvserver.NewCPHashBackend(cpTable)})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		cpQPS, cpP99 := tcpThroughput([]string{cpSrv.Addr()}, spec)
		cpSrv.Close()
		cpTable.Close()

		lhTable := lockhash.MustNew(lockhash.Config{CapacityBytes: capBytes, Seed: 1})
		lhSrv, err := kvserver.Serve(kvserver.Config{Addr: "127.0.0.1:0", Workers: 2, NewBackend: kvserver.NewLockHashBackend(lhTable)})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		lhQPS, lhP99 := tcpThroughput([]string{lhSrv.Addr()}, spec)
		lhSrv.Close()

		record("fig13", map[string]any{"design": "cpserver", "ws": ws}, cpQPS, cpP99)
		record("fig13", map[string]any{"design": "lockserver", "ws": ws}, lhQPS, lhP99)
		fmt.Printf("%-10s %16.3g %16.3g %8.2f\n", perf.FormatBytes(ws), cpQPS, lhQPS, cpQPS/lhQPS)
	}
	fmt.Println()
}

func fig14() {
	fmt.Println("=== Figure 14 (native TCP): per-core throughput vs memcached-style ===")
	spec := workload.Default(1 << 20)
	capBytes := partition.CapacityForValues(spec.NumKeys(), spec.ValueSize)
	fmt.Printf("%-10s %16s %16s %16s\n", "instances", "CPServer q/s", "LockServer q/s", "Memcached q/s")
	for _, n := range []int{1, 2, 4} {
		cpTable := core.MustNew(core.Config{Partitions: *servers, CapacityBytes: capBytes, MaxClients: n, Seed: 1})
		cpSrv, _ := kvserver.Serve(kvserver.Config{Addr: "127.0.0.1:0", Workers: n, NewBackend: kvserver.NewCPHashBackend(cpTable)})
		cpQPS, cpP99 := tcpThroughput([]string{cpSrv.Addr()}, spec)
		cpSrv.Close()
		cpTable.Close()

		lhTable := lockhash.MustNew(lockhash.Config{CapacityBytes: capBytes, Seed: 1})
		lhSrv, _ := kvserver.Serve(kvserver.Config{Addr: "127.0.0.1:0", Workers: n, NewBackend: kvserver.NewLockHashBackend(lhTable)})
		lhQPS, lhP99 := tcpThroughput([]string{lhSrv.Addr()}, spec)
		lhSrv.Close()

		// n single-lock instances on the same kvserver as the two above: the
		// three columns differ in the table's concurrency scheme only.
		cluster, _ := memcache.ServeCluster(n, capBytes)
		mcQPS, mcP99 := tcpThroughput(cluster.Addrs(), spec)
		cluster.Close()

		record("fig14", map[string]any{"design": "cpserver", "instances": n}, cpQPS, cpP99)
		record("fig14", map[string]any{"design": "lockserver", "instances": n}, lhQPS, lhP99)
		record("fig14", map[string]any{"design": "memcached", "instances": n}, mcQPS, mcP99)
		fmt.Printf("%-10d %16.3g %16.3g %16.3g\n", n, cpQPS, lhQPS, mcQPS)
	}
	fmt.Println()
}

func ablationRing() {
	fmt.Println("=== §3.4 ablation: single-value slot vs buffered ring (round trips) ===")
	const n = 500000

	var slot ring.SingleSlot[uint64]
	startS := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			slot.Recv()
		}
	}()
	for i := 0; i < n; i++ {
		slot.Send(uint64(i))
	}
	slotRate := float64(n) / time.Since(startS).Seconds()

	r := ring.MustSPSC[uint64](4096, 8)
	done := make(chan struct{})
	startR := time.Now()
	go func() {
		defer close(done)
		got := 0
		for got < n {
			if _, ok := r.Consume(); ok {
				got++
			} else {
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < n; i++ {
		r.ProduceSpin(uint64(i))
	}
	r.Flush()
	<-done
	ringRate := float64(n) / time.Since(startR).Seconds()

	record("ablation-ring", map[string]any{"design": "single-slot"}, slotRate, 0)
	record("ablation-ring", map[string]any{"design": "buffered-ring"}, ringRate, 0)
	fmt.Printf("single slot:   %10.3g msgs/sec\n", slotRate)
	fmt.Printf("buffered ring: %10.3g msgs/sec (%.1f× — batching wins under load, as §3.4 predicts)\n\n",
		ringRate, ringRate/slotRate)
}

func ablationBatch() {
	fmt.Println("=== §6.1 ablation: pipeline-depth sensitivity (1 MB ws) ===")
	spec := workload.Default(1 << 20)
	fmt.Printf("%-10s %16s\n", "pipeline", "CPHash q/s")
	for _, depth := range []int{8, 64, 512, 2048} {
		cp := runCPHash(spec, spec.NumKeys(), partition.EvictLRU, *clients, *servers, depth)
		record("ablation-batch", map[string]any{"design": "cphash", "pipeline": depth}, cp.PerSecond(), 0)
		fmt.Printf("%-10d %16.3g\n", depth, cp.PerSecond())
	}
	fmt.Println()
}

// --- hotpath: the steady-state perf gate ---

const (
	hotpathConns   = 4
	hotpathWorkers = 2
)

// hotpathConnLoop dials once, runs a warmup round of the canonical
// internal/hotpath 90/10 GET/SET mix, waits at the measurement barrier,
// then runs the measured round on the SAME warmed connection, recording
// per-window round-trip latency. Keeping the connection across phases is
// what makes the whole-process allocation delta a steady-state number:
// no dial, bufio, connState, or cold-arena setup lands inside the timed
// region. The loop body is allocation-free.
func hotpathConnLoop(addr string, size, connOps int, seed uint64, hist *perf.Histogram, warmed *sync.WaitGroup, start <-chan struct{}) error {
	bw, br, closer, err := kvserver.DialBuf(addr, size)
	if err != nil {
		warmed.Done()
		return err
	}
	defer closer.Close()
	val := make([]byte, hotpath.ValueSize)
	dst := make([]byte, 0, 2*hotpath.ValueSize)
	warmupOps := connOps / 4
	if warmupOps < 4*hotpath.Window {
		warmupOps = 4 * hotpath.Window
	}
	dst, err = hotpath.Mix(bw, br, warmupOps, hotpath.Window, seed, val, dst, nil)
	warmed.Done()
	if err != nil {
		return err
	}
	<-start
	windowStart := time.Now()
	onWindow := func() {
		now := time.Now()
		hist.Record(now.Sub(windowStart).Nanoseconds())
		windowStart = now
	}
	_, err = hotpath.Mix(bw, br, connOps, hotpath.Window, seed, val, dst, onWindow)
	return err
}

// hotpathRun measures one buffer-size configuration: qps, window p99,
// and allocations per operation across the whole process. With
// persistDir non-empty the server runs the full durability pipeline
// (sync=interval) rooted there and the measurement is recorded as the
// design "cpserver+persist" — the number whose ratio to the bare run is
// the durability overhead the trajectory tracks. Returns ok=false on
// failure; the caller picks the best of several runs before recording,
// so one scheduler hiccup cannot poison the trajectory.
//
// With replicate true (requires persistDir), a replication source
// streams the pipeline's tail to an in-process follower applying into a
// second table — the design "cpserver+replica", whose ratio to the
// persist-only number is the replication overhead.
func hotpathRun(size int, persistDir string, replicate bool) (res hotpathResult, ok bool) {
	design := "cpserver"
	var pipe *persist.Pipeline
	var sink func(int) partition.ChangeSink
	if persistDir != "" {
		design = "cpserver+persist"
		var err error
		pipe, err = persist.Open(persist.Config{Dir: persistDir, Policy: persist.SyncInterval})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return res, false
		}
		sink = func(p int) partition.ChangeSink { return pipe.Appender(p) }
	}
	table := core.MustNew(core.Config{
		Partitions:    *servers,
		CapacityBytes: partition.CapacityForValues(2*hotpath.Keys, hotpath.ValueSize),
		MaxClients:    hotpathWorkers,
		Seed:          1,
		Sink:          sink,
	})
	defer table.Close()
	if pipe != nil {
		pipe.SetSource(persist.CoreSource(table))
		if err := pipe.Start(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return res, false
		}
		// Serve owns the pipeline lifecycle once it starts; until (and
		// unless) that succeeds, shut it down here so a failed run never
		// leaks persister goroutines into the remaining measurements.
		defer func() {
			if !ok {
				pipe.Close()
			}
		}()
	}
	var src *replica.Source
	var fl *replica.Follower
	if replicate {
		design = "cpserver+replica"
		var err error
		// A backlog small enough that the warmup rounds (~10% SETs)
		// cycle every slot: the tail ring reuses slot buffers in place,
		// so the measured window is allocation-free only once every slot
		// has been written at the workload's record size.
		src, err = replica.NewSource(replica.SourceConfig{Pipe: pipe, Addr: "127.0.0.1:0", BacklogRecords: 2048})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return res, false
		}
		defer func() {
			if !ok {
				src.Close()
			}
		}()
		ftable := lockhash.MustNew(lockhash.Config{
			Partitions:    *servers,
			CapacityBytes: partition.CapacityForValues(2*hotpath.Keys, hotpath.ValueSize),
		})
		fl, err = replica.StartFollower(replica.FollowerConfig{
			Source: src.Addr(),
			Name:   "bench",
			Apply:  replica.NewLockHashApplier(ftable),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return res, false
		}
		defer fl.Close()
	}
	srv, err := kvserver.Serve(kvserver.Config{
		Addr:        "127.0.0.1:0",
		Workers:     hotpathWorkers,
		BufferSize:  size,
		NewBackend:  kvserver.NewCPHashBackend(table),
		Persist:     pipe,
		Replication: src,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return res, false
	}
	defer srv.Close()

	// Preload the working set, then warm every pooled buffer with one
	// unmeasured round so the measurement sees the steady state.
	bw, _, closer, err := kvserver.DialBuf(srv.Addr(), size)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return res, false
	}
	val := make([]byte, hotpath.ValueSize)
	if err := hotpath.Preload(bw, val); err != nil {
		fmt.Fprintln(os.Stderr, err)
		closer.Close()
		return res, false
	}
	closer.Close()

	connOps := *ops / hotpathConns
	if connOps < hotpath.Window {
		connOps = hotpath.Window
	}
	// Every connection dials and warms up once, parks at the barrier, and
	// runs its measured round on the same connection — so the MemStats
	// window brackets pure steady state.
	hists := make([]*perf.Histogram, hotpathConns)
	for i := range hists {
		hists[i] = perf.NewHistogram()
	}
	var warmed sync.WaitGroup
	warmed.Add(hotpathConns)
	startGate := make(chan struct{})
	errs := make(chan error, hotpathConns)
	for ci := 0; ci < hotpathConns; ci++ {
		go func(ci int) {
			errs <- hotpathConnLoop(srv.Addr(), size, connOps, uint64(ci)*0x9e3779b9+1, hists[ci], &warmed, startGate)
		}(ci)
	}
	warmed.Wait()
	if src != nil && !waitSynced(src, 10*time.Second) {
		fmt.Fprintln(os.Stderr, "cpbench: follower did not reach the tail watermark")
		return res, false
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	close(startGate)
	var firstErr error
	for ci := 0; ci < hotpathConns; ci++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, firstErr)
		return res, false
	}

	total := int64(connOps * hotpathConns)
	allocsPerOp := float64(after.Mallocs-before.Mallocs) / float64(total)
	hist := perf.NewHistogram()
	for _, h := range hists {
		hist.Merge(h)
	}
	qps := float64(total) / elapsed.Seconds()
	p99 := time.Duration(hist.Quantile(0.99))
	return hotpathResult{design: design, size: size, qps: qps, p99: p99, allocs: allocsPerOp}, true
}

// hotpathResult is one hotpath measurement.
type hotpathResult struct {
	design string
	size   int
	qps    float64
	p99    time.Duration
	allocs float64
}

// hotpathBest runs one configuration hotpathRuns times and records the
// best run. Measurement windows are tens of milliseconds, so on a busy
// (or single-core) host individual runs swing wildly with scheduler
// luck; the best of several is the stable, comparable number — the same
// reason `go test -bench` reports are taken over multiple -count runs.
const hotpathRuns = 5

func hotpathBest(exp string, size int, persistDir string, replicate bool) float64 {
	var b hotpathResult
	for i := 0; i < hotpathRuns; i++ {
		if r, ok := hotpathRun(size, persistDir, replicate); ok && r.qps > b.qps {
			b = r
		}
	}
	if b.qps == 0 {
		return 0
	}
	record(exp, map[string]any{
		"design":      b.design,
		"bufsize":     b.size,
		"conns":       hotpathConns,
		"window":      hotpath.Window,
		"getRatio":    0.9,
		"valueSize":   hotpath.ValueSize,
		"allocsPerOp": b.allocs,
		"bestOf":      hotpathRuns,
	}, b.qps, b.p99)
	fmt.Printf("%-18s %-10s %14.3g %12v %12.4f\n", b.design, perf.FormatBytes(b.size), b.qps, b.p99, b.allocs)
	return b.qps
}

// hotpathExperiment is the steady-state wire-level perf gate: 90/10
// GET/SET over loopback, reporting throughput, p99 window latency, and
// allocs/op. Its JSON records seed the BENCH_hotpath.json trajectory CI
// archives.
func hotpathExperiment() {
	fmt.Println("=== hotpath: wire-level 90/10 GET/SET, allocation-gated ===")
	fmt.Printf("%-18s %-10s %14s %12s %12s\n", "design", "bufsize", "queries/s", "window p99", "allocs/op")
	sizes := []int{16 << 10, 64 << 10, 256 << 10}
	if *bufSize != "sweep" {
		n, err := sizeparse.Parse(*bufSize)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpbench: -bufsize: %v\n", err)
			os.Exit(2)
		}
		sizes = []int{n}
	}
	for _, size := range sizes {
		bare := hotpathBest("hotpath", size, "", false)
		dir, err := os.MkdirTemp("", "cpbench-persist-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		durable := hotpathBest("hotpath", size, dir, false)
		os.RemoveAll(dir)
		if bare > 0 && durable > 0 {
			fmt.Printf("  durability overhead at %s: %.1f%% qps (WAL on, sync=interval, best of %d)\n",
				perf.FormatBytes(size), 100*(1-durable/bare), hotpathRuns)
		}
	}
	fmt.Println()
}

// waitSynced polls the source until its follower has completed the
// initial sync and acknowledged the current tail, so the measured window
// starts from replication steady state.
func waitSynced(src *replica.Source, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		tail := src.Tail()
		for _, ps := range src.Status() {
			if ps.Synced && ps.Acked >= tail {
				return true
			}
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// replicationExperiment measures the cost of the replication stack on
// the wire hot path: the same 90/10 GET/SET mix as the hotpath
// experiment, run bare, with the durability pipeline, and with the
// pipeline plus a live in-process follower (source backlog staging,
// frame compression, socket writes, follower applies). The two ratios it
// prints separate what durability costs from what shipping the tail to a
// replica adds on top.
func replicationExperiment() {
	fmt.Println("=== replication: hot-path overhead of a live follower ===")
	fmt.Printf("%-18s %-10s %14s %12s %12s\n", "design", "bufsize", "queries/s", "window p99", "allocs/op")
	size := 64 << 10
	if *bufSize != "sweep" {
		n, err := sizeparse.Parse(*bufSize)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpbench: -bufsize: %v\n", err)
			os.Exit(2)
		}
		size = n
	}
	bare := hotpathBest("replication", size, "", false)
	dir, err := os.MkdirTemp("", "cpbench-repl-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer os.RemoveAll(dir)
	durable := hotpathBest("replication", size, dir, false)
	rdir, err := os.MkdirTemp("", "cpbench-repl-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer os.RemoveAll(rdir)
	replicated := hotpathBest("replication", size, rdir, true)
	if bare > 0 && durable > 0 && replicated > 0 {
		fmt.Printf("  durability overhead at %s: %.1f%% qps (WAL on, sync=interval)\n",
			perf.FormatBytes(size), 100*(1-durable/bare))
		fmt.Printf("  replication overhead at %s: %.1f%% qps over persist-only (live follower, best of %d)\n",
			perf.FormatBytes(size), 100*(1-replicated/durable), hotpathRuns)
	}
	fmt.Println()
}

// obsExperiment measures the observability surface the way an operator
// consumes it: a CPSERVER with its /metrics registry, zipfian load, and
// a scraper polling the endpoint throughout the run. The recorded
// numbers are SERVER-SIDE — op latency quantiles reconstructed from the
// delta of the scraped histograms (exactly this run's operations) and
// the slot-heat skew (hottest slot's share relative to a uniform
// spread), the signal the README's hot-slot walkthrough reads. The JSON
// records seed the BENCH_obs.json trajectory CI archives.
func obsExperiment() {
	fmt.Println("=== obs: scrape-driven server-side latency and slot heat (zipfian) ===")
	spec := workload.Default(1 << 20)
	spec.Dist = workload.Zipfian
	table := core.MustNew(core.Config{
		Partitions:    *servers,
		CapacityBytes: partition.CapacityForValues(spec.NumKeys(), spec.ValueSize),
		MaxClients:    2,
		Seed:          1,
	})
	defer table.Close()
	srv, err := kvserver.Serve(kvserver.Config{Addr: "127.0.0.1:0", Workers: 2, NewBackend: kvserver.NewCPHashBackend(table)})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	reg.Register(func(e *obs.Expo) {
		labels := obs.Labels("instance", srv.Addr())
		srv.Collect(e, labels)
		table.Collect(e, labels)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	hsrv := &http.Server{Handler: reg.Handler()}
	go hsrv.Serve(ln)
	defer hsrv.Close()
	scrape := func() (*obs.Scrape, error) {
		resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return obs.ParseText(resp.Body)
	}

	before, err := scrape()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	// Scrape at intervals while the load runs — the aggregation is lazy
	// and lock-free, so concurrent scrapes must neither stall traffic nor
	// return a malformed exposition.
	scrapes := 1
	stopScraper := make(chan struct{})
	scraperDone := make(chan error, 1)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopScraper:
				scraperDone <- nil
				return
			case <-tick.C:
				if _, err := scrape(); err != nil {
					scraperDone <- err
					return
				}
				scrapes++
			}
		}
	}()
	res, err := loadgen.Run(loadgen.Config{
		Addrs:      []string{srv.Addr()},
		Conns:      4,
		Pipeline:   64,
		Spec:       spec,
		OpsPerConn: *ops / 8,
	})
	close(stopScraper)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	if err := <-scraperDone; err != nil {
		fmt.Fprintf(os.Stderr, "cpbench: mid-run scrape: %v\n", err)
		return
	}
	after, err := scrape()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	scrapes++

	d := after.Sub(before)
	p50, _ := d.Quantile("cphash_op_latency_ns", 0.5)
	p99, _ := d.Quantile("cphash_op_latency_ns", 0.99)
	p999, _ := d.Quantile("cphash_op_latency_ns", 0.999)
	// Slot-heat skew from the scraped per-slot counters: hottest slot's
	// ops × slots / total — 1.0 is perfectly uniform, obs.Slots is
	// everything on one slot.
	var totalOps, maxOps float64
	hotSlot := ""
	for _, k := range d.Keys() {
		if !strings.HasPrefix(k, "cphash_slot_ops_total{") {
			continue
		}
		v := d.Samples[k]
		totalOps += v
		if v > maxOps {
			maxOps = v
			hotSlot = k
		}
	}
	skew := 0.0
	if totalOps > 0 {
		skew = maxOps * float64(obs.Slots) / totalOps
	}
	record("obs", map[string]any{
		"design":       "cpserver",
		"dist":         "zipfian",
		"scrapes":      scrapes,
		"serverP50Ns":  p50,
		"serverP999Ns": p999,
		"slotHeatSkew": skew,
	}, res.Throughput(), time.Duration(p99))
	fmt.Printf("%-10s %14.3g q/s, %d scrapes\n", "cpserver", res.Throughput(), scrapes)
	fmt.Printf("server op latency: p50≤%.0f p99≤%.0f p999≤%.0f ns\n", p50, p99, p999)
	fmt.Printf("slot heat: skew %.1f× uniform, hottest %s\n\n", skew, hotSlot)
}

// ablationDynamic exercises the §8.1 extension: with the client count
// fixed, consolidate the partitions onto fewer server goroutines and watch
// throughput. On an oversubscribed host, fewer servers can *help* (less
// scheduling pressure), which is exactly the paper's motivation for
// adjusting the split dynamically to the workload.
func ablationDynamic() {
	fmt.Println("=== §8.1 ablation: dynamic server-thread consolidation (1 MB ws) ===")
	spec := workload.Default(1 << 20)
	nParts := 8
	fmt.Printf("%-16s %16s\n", "active servers", "CPHash q/s")
	for _, active := range []int{8, 4, 2, 1} {
		t := core.MustNew(core.Config{
			Partitions:    nParts,
			CapacityBytes: partition.CapacityForValues(spec.NumKeys(), spec.ValueSize),
			MaxClients:    *clients,
			Seed:          1,
		})
		if err := t.SetActiveServers(active); err != nil {
			fmt.Fprintln(os.Stderr, err)
			t.Close()
			return
		}
		perClient := *ops / *clients
		done := make(chan struct{})
		start := time.Now()
		for ci := 0; ci < *clients; ci++ {
			go func(ci int) {
				defer func() { done <- struct{}{} }()
				c := t.MustClient(ci)
				defer c.Close()
				sp := spec
				sp.Seed = spec.Seed + uint64(ci)*31 + 1
				g := workload.MustGenerator(sp)
				val := make([]byte, sp.ValueSize)
				var dst []byte
				for i := 0; i < perClient; i++ {
					kind, key := g.Next()
					if kind == workload.Insert {
						c.Put(key, sp.FillValue(key, val))
					} else {
						dst, _ = c.Get(key, dst[:0])
					}
				}
			}(ci)
		}
		for ci := 0; ci < *clients; ci++ {
			<-done
		}
		tput := perf.Throughput{Ops: int64(perClient * *clients), Elapsed: time.Since(start)}
		record("ablation-dynamic", map[string]any{"design": "cphash", "activeServers": active}, tput.PerSecond(), 0)
		fmt.Printf("%-16d %16.3g\n", active, tput.PerSecond())
		t.Close()
	}
	fmt.Println()
}

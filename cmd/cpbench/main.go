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
//	cpbench -experiment ablation-dynamic # §8.1: server-thread consolidation
//	cpbench -experiment faults    # latency under injected faults + time-to-recovery
//	cpbench -experiment all
//
// These are the paper's figures and the fault matrix only. Performance
// of this implementation is priced by the benchmark ledger (go run -C
// bench .), and the zero-allocation request path is gated by
// TestHotPathAllocCeiling in the root package.
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
	"os"
	"runtime"
	"time"

	"cphash/internal/core"
	"cphash/internal/kvserver"
	"cphash/internal/loadgen"
	"cphash/internal/lockhash"
	"cphash/internal/memcache"
	"cphash/internal/partition"
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
		"ablation-dynamic": true, "faults": true, "all": true,
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
	run("faults", faultsExperiment)
	writeResults()
}

// rate returns operations per second since start.
func rate(ops int, start time.Time) float64 {
	return float64(ops) / time.Since(start).Seconds()
}

// runCPHash measures native CPHASH throughput (ops/s) for a spec.
func runCPHash(spec workload.Spec, capacityValues int, policy partition.EvictionPolicy, nClients, nParts, pipeline int) float64 {
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
	return rate(perClient*nClients, start)
}

// runLockHash measures native LOCKHASH throughput (ops/s) for a spec.
func runLockHash(spec workload.Spec, capacityValues int, policy partition.EvictionPolicy, nThreads int) float64 {
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
	return rate(perThread*nThreads, start)
}

func figWS(key, title string, policy partition.EvictionPolicy) {
	fmt.Println("===", title, "===")
	fmt.Printf("%-10s %16s %16s %8s\n", "ws", "CPHash q/s", "LockHash q/s", "ratio")
	for _, ws := range []int{100 << 10, 1 << 20, 16 << 20} {
		spec := workload.Default(ws)
		cp := runCPHash(spec, spec.NumKeys(), policy, *clients, *servers, 0)
		lh := runLockHash(spec, spec.NumKeys(), policy, *clients+*servers)
		record(key, map[string]any{"design": "cphash", "ws": ws, "eviction": policy.String()}, cp, 0)
		record(key, map[string]any{"design": "lockhash", "ws": ws, "eviction": policy.String()}, lh, 0)
		fmt.Printf("%-10s %16.3g %16.3g %8.2f\n",
			sizeparse.Format(ws), cp, lh, cp/lh)
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
		record("fig9", map[string]any{"design": "cphash", "ws": ws, "capacityValues": capVals}, cp, 0)
		record("fig9", map[string]any{"design": "lockhash", "ws": ws, "capacityValues": capVals}, lh, 0)
		fmt.Printf("%-10s %16.3g %16.3g\n",
			sizeparse.Format(capVals*8), cp, lh)
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
		record("fig10", map[string]any{"design": "cphash", "ws": ws, "insertRatio": ratio}, cp, 0)
		record("fig10", map[string]any{"design": "lockhash", "ws": ws, "insertRatio": ratio}, lh, 0)
		fmt.Printf("%-8.1f %16.3g %16.3g\n", ratio, cp, lh)
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
		cpThr, lhThr := cp/float64(n), lh/float64(n)
		record("fig11", map[string]any{"design": "cphash", "goroutines": n, "qpsPerThread": cpThr}, cp, 0)
		record("fig11", map[string]any{"design": "lockhash", "goroutines": n, "qpsPerThread": lhThr}, lh, 0)
		fmt.Printf("%-10d %18.3g %18.3g\n", n, cpThr, lhThr)
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
		fmt.Printf("%-10s %16.3g %16.3g %8.2f\n", sizeparse.Format(ws), cpQPS, lhQPS, cpQPS/lhQPS)
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
		record("ablation-batch", map[string]any{"design": "cphash", "pipeline": depth}, cp, 0)
		fmt.Printf("%-10d %16.3g\n", depth, cp)
	}
	fmt.Println()
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
		tput := rate(perClient*(*clients), start)
		record("ablation-dynamic", map[string]any{"design": "cphash", "activeServers": active}, tput, 0)
		fmt.Printf("%-16d %16.3g\n", active, tput)
		t.Close()
	}
	fmt.Println()
}

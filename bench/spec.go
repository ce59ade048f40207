package main

import (
	"fmt"

	"cphash/internal/partition"
	"cphash/internal/workload"
)

// procs is the GOMAXPROCS of the generator and of every cpserver it
// spawns, and the number of generator threads/connections. It is a fixed
// number, never derived from the host, so that results from one host
// stay comparable; the run aborts on a host with fewer CPUs.
const procs = 2

type targetKind int

const (
	inProcess  targetKind = iota // core.Client calls, no wire
	nativeWire                   // cpserver's binary protocol
	textWire                     // cpserver -memcached, memcached text
)

// workloadDef is one row of the workload table in README.md.
type workloadDef struct {
	name string
	kind targetKind
	// spec is the traffic: working set, value sizes, mix, distribution.
	spec workload.Spec
	// quickKeys is the key count under -quick.
	quickKeys int
	// window is the closed-phase in-flight bound per generator.
	window int
	// gap keeps a SET key out of the next gap ops of its stream (see
	// genStream); only the in-process workload needs it.
	gap int
	// instances and capacity (bytes per instance) size the system; flags
	// are the cpserver flags beyond -addr/-capacity/-statsaddr/-stats,
	// persistFlags those that go with -datadir and replicaFlags those of
	// replication, apart so that the traced run can leave layers out.
	instances    int
	capacity     int
	flags        []string
	persistFlags []string
	replicaFlags []string
	durable      bool // gets a -datadir; keys are routed by cluster.NodeOf
	// mustHit: nothing is ever evicted, so a GET miss is a wrong output.
	mustHit bool
	// rates are the frozen open-phase rates r1<r2<r3 (ops/s, all
	// generators together) and p99LimitUs the frozen latency limit; see
	// README.md for the seed-commit numbers they were derived from.
	rates      [3]float64
	p99LimitUs float64
}

func (w *workloadDef) numKeys() int { return w.spec.NumKeys() }

const (
	wireKeys  = 1 << 20
	wireValue = 64
)

// durableSizes is durable_set50's value mixture: nine 16 B values to one
// 1 KiB value, chosen per key.
var durableSizes = []workload.SizeClass{{Bytes: 16, Weight: 9}, {Bytes: 1024, Weight: 1}}

// durable_set50 runs two 16 MiB instances under 2^19 keys: at a mean
// charge of ~190 B per entry (116.8 B value + 64 B header, block-rounded)
// the set is about 3× the configured capacity, so evictions and misses
// are part of the workload.
const (
	durableCapacity = 16 << 20
	durableKeys     = 1 << 19
)

func wireSpec() workload.Spec {
	return workload.Spec{
		WorkingSetBytes: wireKeys * wireValue,
		ValueSize:       wireValue,
		InsertRatio:     0.1,
		Dist:            workload.Zipfian,
	}
}

var workloads = []*workloadDef{
	{
		name: "table_uniform", kind: inProcess,
		spec:      workload.Default(8 << 20), // 2^20 keys × 8 B, 30 % INSERT, uniform
		quickKeys: 1 << 16,
		window:    256, gap: 2048,
		capacity: partition.CapacityForValues(2<<20, 8),
		mustHit:  true,
		rates:    [3]float64{1.6e5, 8.0e5, 1.6e6}, p99LimitUs: 200,
	},
	{
		name: "wire_get90", kind: nativeWire,
		spec:      wireSpec(),
		quickKeys: 1 << 16,
		window:    64,
		instances: 1, capacity: partition.CapacityForValues(2*wireKeys, wireValue),
		flags:   []string{"-backend", "cphash"},
		mustHit: true,
		rates:   [3]float64{3.1e4, 1.6e5, 3.1e5}, p99LimitUs: 5000,
	},
	{
		name: "durable_set50", kind: nativeWire,
		spec: workload.Spec{
			WorkingSetBytes: durableKeys * (9*16 + 1024) / 10,
			InsertRatio:     0.5,
			Dist:            workload.Uniform,
			Sizes:           durableSizes,
		},
		quickKeys: 1 << 16,
		window:    64,
		instances: 2, capacity: durableCapacity,
		flags:        []string{"-backend", "cphash"},
		persistFlags: []string{"-sync", "interval", "-syncevery", "100ms", "-snapshot-interval", "5s"},
		replicaFlags: []string{"-replicas", "2"},
		durable:      true,
		rates:        [3]float64{1.5e4, 7.5e4, 1.5e5}, p99LimitUs: 5000,
	},
	{
		name: "mc_text", kind: textWire,
		spec:      wireSpec(),
		quickKeys: 1 << 16,
		window:    64,
		instances: 1, capacity: partition.CapacityForValues(2*wireKeys, wireValue),
		flags:   []string{"-backend", "cphash"},
		mustHit: true,
		rates:   [3]float64{2.6e3, 1.3e4, 2.6e4}, p99LimitUs: 5000,
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// quick returns a copy shrunk for -quick: quickKeys keys, same shape.
func (w *workloadDef) quick() *workloadDef {
	q := *w
	mean := float64(w.spec.WorkingSetBytes) / float64(w.numKeys())
	q.spec.WorkingSetBytes = int(float64(w.quickKeys) * mean)
	if w.mustHit {
		// 4× rather than 2×: LOCKHASH spreads so few keys over 4096
		// partitions unevenly enough to overflow some at 2×.
		q.capacity = partition.CapacityForValues(4*w.quickKeys, w.spec.MaxValueSize())
	}
	return &q
}

// inProcess returns w's traffic aimed at an in-process table of the
// whole system's capacity. Without the stream's gap rule a pipelined
// LOOKUP can overtake the Ready of an INSERT of the same key just ahead
// of it (kvserver settles that inside a batch; a bare core.Client does
// not), so such a miss is then legal.
func (w *workloadDef) inProcess() *workloadDef {
	c := *w
	c.kind = inProcess
	c.capacity = w.capacity * max(w.instances, 1)
	c.mustHit = w.mustHit && w.gap > 0
	return &c
}

// endToEnd and perLayer are the metric names this program emits, in
// print order. TestNamesMatchBenchmarkJSON holds them equal to
// BENCHMARK.json.
var endToEnd = []string{
	"setup_s", "ops_per_s", "cpu_us_per_op", "lat_p50_us", "hit_frac", "rss_mb",
}

var perLayer = []string{
	// Demoted from the end-to-end list: same-code runs on this host
	// differ by more than any bound up to 20 % (README.md, "Agreement").
	"lat_p99_us", "slo_rate_per_s",
	"partition.lookup_ns", "partition.insert_ns", "partition.evictions_per_insert", "partition.bytes_per_user_byte",
	"ring.roundtrip_ns", "ring.msgs_per_flush",
	"core.async_ns_per_op", "core.self_ns", "core.sync_get_ns", "core.msgs_per_op", "core.idle_sweep_frac",
	"lockhash.ns_per_op", "core.over_lockhash", "kvserver.lockhash_ops_per_s",
	"protocol.encode_req_ns", "protocol.decode_resp_ns", "protocol.bytes_per_op", "protocol.allocs_per_op",
	"kvserver.batch_mean", "kvserver.server_p50_ns", "kvserver.server_p99_ns", "kvserver.self_cpu_us_per_op",
	"persist.delta_cpu_us_per_op", "persist.wal_bytes_per_set", "persist.fsyncs_per_s", "persist.barrier_wait_p99_ns",
	"persist.snapshots", "persist.recover_s", "persist.recovered_frac",
	"replica.delta_cpu_us_per_op", "replica.frames_per_set", "replica.lag_p99_ms", "replica.resyncs",
	"mctext.delta_cpu_us_per_op", "mctext.ops_frac_of_native", "mctext.upstream_errors", "mctext.parse_errors",
	"obs.scrape_ms", "obs.series", "runtime.allocs_per_op", "runtime.gc_pause_p99_us", "runtime.heap_mb",
	"loadgen.late_p99_us", "loadgen.sent_frac", "loadgen.cpu_us_per_op",
	"loadgen.lat_r1_p50_us", "loadgen.lat_r1_p99_us", "loadgen.lat_r3_p50_us", "loadgen.lat_r3_p99_us",
	"loadgen.lat_r2_p999_us", "trace.overhead_frac", "trace.clock_ns",
}

var units = map[string]string{
	"setup_s": "s", "ops_per_s": "ops/s", "cpu_us_per_op": "us", "lat_p50_us": "us", "lat_p99_us": "us",
	"slo_rate_per_s": "ops/s", "hit_frac": "ratio", "rss_mb": "MiB",

	"partition.lookup_ns": "ns", "partition.insert_ns": "ns", "partition.evictions_per_insert": "ratio",
	"partition.bytes_per_user_byte": "ratio", "ring.roundtrip_ns": "ns", "ring.msgs_per_flush": "count",
	"core.async_ns_per_op": "ns", "core.self_ns": "ns", "core.sync_get_ns": "ns", "core.msgs_per_op": "count",
	"core.idle_sweep_frac": "ratio", "lockhash.ns_per_op": "ns", "core.over_lockhash": "ratio",
	"kvserver.lockhash_ops_per_s": "ops/s", "protocol.encode_req_ns": "ns", "protocol.decode_resp_ns": "ns",
	"protocol.bytes_per_op": "B", "protocol.allocs_per_op": "count", "kvserver.batch_mean": "count",
	"kvserver.server_p50_ns": "ns", "kvserver.server_p99_ns": "ns", "kvserver.self_cpu_us_per_op": "us",
	"persist.delta_cpu_us_per_op": "us", "persist.wal_bytes_per_set": "B", "persist.fsyncs_per_s": "1/s",
	"persist.barrier_wait_p99_ns": "ns", "persist.snapshots": "count", "persist.recover_s": "s",
	"persist.recovered_frac": "ratio", "replica.delta_cpu_us_per_op": "us", "replica.frames_per_set": "count",
	"replica.lag_p99_ms": "ms", "replica.resyncs": "count", "mctext.delta_cpu_us_per_op": "us",
	"mctext.ops_frac_of_native": "ratio", "mctext.upstream_errors": "count", "mctext.parse_errors": "count",
	"obs.scrape_ms": "ms", "obs.series": "count", "runtime.allocs_per_op": "count",
	"runtime.gc_pause_p99_us": "us", "runtime.heap_mb": "MiB", "loadgen.late_p99_us": "us",
	"loadgen.sent_frac": "ratio", "loadgen.cpu_us_per_op": "us", "loadgen.lat_r1_p50_us": "us",
	"loadgen.lat_r1_p99_us": "us", "loadgen.lat_r3_p50_us": "us", "loadgen.lat_r3_p99_us": "us",
	"loadgen.lat_r2_p999_us": "us", "trace.overhead_frac": "ratio", "trace.clock_ns": "ns",
}

// Command cploadgen drives load at key/value cache servers speaking the
// CPHash binary protocol — the reproduction of the paper's client machine
// for the Section 7 experiments.
//
//	cploadgen -addrs 127.0.0.1:9090 -conns 8 -ops 100000 -ws 1MiB
//	cploadgen -addrs host:9090,host:9091,host:9092 -insert-ratio 0.3 -validate
//
// Multiple comma-separated addresses form a cluster: every key routes
// through the internal/cluster 256-slot continuum to its owning instance
// (how the paper's clients spread keys over per-core memcached
// instances), and the run reports per-node traffic so skew and failures
// are visible. Pair with `cpserver -instances N` for a one-machine
// cluster.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"

	"cphash/internal/loadgen"
	"cphash/internal/obs"
	"cphash/internal/sizeparse"
	"cphash/internal/workload"
)

var (
	addrs       = flag.String("addrs", "127.0.0.1:9090", "comma-separated cluster member addresses")
	conns       = flag.Int("conns", 4, "concurrent pipelined client sessions")
	pipeline    = flag.Int("pipeline", 64, "requests in flight per session window")
	opsPerConn  = flag.Int("ops", 50000, "operations per session")
	ws          = flag.String("ws", "1MiB", "working-set size (bytes of values)")
	valueSize   = flag.Int("value-size", 8, "value size in bytes")
	valueSizes  = flag.String("value-sizes", "", "value-size mixture as bytes:weight pairs, e.g. 16:9,1024:1 (overrides -value-size; sizes are key-deterministic so -validate still works)")
	insertRatio = flag.Float64("insert-ratio", 0.3, "fraction of INSERT operations")
	zipf        = flag.Bool("zipf", false, "shorthand for -dist zipf")
	dist        = flag.String("dist", "uniform", "key popularity: uniform, zipf, or shifting (hot window that jumps)")
	hotRatio    = flag.Float64("hot-ratio", 0, "shifting: fraction of ops on the hot window (default 0.9)")
	hotKeys     = flag.Int("hot-keys", 0, "shifting: hot window size in keys (default NumKeys/64)")
	shiftEvery  = flag.Int("shift-every", 0, "shifting: ops per generator between window jumps (default 50000)")
	memcached   = flag.Bool("memcached", false, "addresses are memcached text listeners (cpserver -memcached); drive them over the text protocol instead of the native one")
	validate    = flag.Bool("validate", false, "verify every hit's bytes")
	seed        = flag.Uint64("seed", 1, "workload seed")
	perNode     = flag.Bool("per-node", false, "print per-node traffic breakdown")
	p999        = flag.Bool("p999", false, "also report the p99.9 client-side window latency")
	scrapeAddr  = flag.String("scrape", "", "cpserver -statsaddr to scrape /metrics on before and after the run, printing server-side counter deltas and latency quantiles")
)

func main() {
	flag.Parse()
	wsBytes, err := sizeparse.Parse(*ws)
	if err != nil {
		log.Fatalf("cploadgen: %v", err)
	}
	spec := workload.Spec{
		WorkingSetBytes: wsBytes,
		ValueSize:       *valueSize,
		InsertRatio:     *insertRatio,
		HotRatio:        *hotRatio,
		HotKeys:         *hotKeys,
		ShiftEvery:      *shiftEvery,
		Seed:            *seed,
	}
	switch {
	case *zipf || *dist == "zipf":
		spec.Dist = workload.Zipfian
	case *dist == "shifting":
		spec.Dist = workload.Shifting
	case *dist == "uniform":
	default:
		log.Fatalf("cploadgen: unknown -dist %q (uniform, zipf, shifting)", *dist)
	}
	if *valueSizes != "" {
		if spec.Sizes, err = parseSizeMixture(*valueSizes); err != nil {
			log.Fatalf("cploadgen: %v", err)
		}
	}
	nodes := strings.Split(*addrs, ",")
	var before *obs.Scrape
	if *scrapeAddr != "" {
		if before, err = scrapeMetrics(*scrapeAddr); err != nil {
			log.Fatalf("cploadgen: pre-run scrape: %v", err)
		}
	}
	run := loadgen.Run
	if *memcached {
		run = loadgen.RunMemcached
	}
	res, err := run(loadgen.Config{
		Addrs:      nodes,
		Conns:      *conns,
		Pipeline:   *pipeline,
		Spec:       spec,
		OpsPerConn: *opsPerConn,
		Validate:   *validate,
	})
	if err != nil {
		log.Fatalf("cploadgen: %v", err)
	}
	fmt.Println(res)
	lat := &res.Latency
	fmt.Printf("window latency: n=%d mean=%.0f p50≤%d p99≤%d ns\n", lat.Count, lat.Mean(), lat.Quantile(0.5), lat.Quantile(0.99))
	if *p999 {
		fmt.Printf("window latency p999≤%d ns\n", lat.Quantile(0.999))
	}
	if *perNode || len(nodes) > 1 {
		printPerNode(res)
	}
	if *scrapeAddr != "" {
		after, err := scrapeMetrics(*scrapeAddr)
		if err != nil {
			log.Fatalf("cploadgen: post-run scrape: %v", err)
		}
		printScrapeDelta(after.Sub(before))
	}
	if res.BadBytes > 0 {
		log.Fatalf("cploadgen: %d corrupt responses", res.BadBytes)
	}
}

// parseSizeMixture parses "bytes:weight,bytes:weight,..." into size
// classes.
func parseSizeMixture(s string) ([]workload.SizeClass, error) {
	var out []workload.SizeClass
	for _, part := range strings.Split(s, ",") {
		var c workload.SizeClass
		if _, err := fmt.Sscanf(part, "%d:%d", &c.Bytes, &c.Weight); err != nil {
			return nil, fmt.Errorf("size mixture %q: want bytes:weight pairs", part)
		}
		out = append(out, c)
	}
	return out, nil
}

// scrapeMetrics fetches and strictly parses a cpserver's Prometheus
// exposition. A malformed exposition is a fatal error — CI uses this as
// the /metrics validity gate.
func scrapeMetrics(addr string) (*obs.Scrape, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return obs.ParseText(resp.Body)
}

// printScrapeDelta renders the server-side view of the run: counter
// deltas summed across instances plus latency quantiles reconstructed
// from the delta histogram buckets (cumulative buckets subtract cleanly,
// so the quantiles cover exactly this run's operations).
func printScrapeDelta(d *obs.Scrape) {
	fmt.Printf("server delta: requests=%.0f batches=%.0f lookups=%.0f hits=%.0f inserts=%.0f bytes_in=%.0f bytes_out=%.0f\n",
		d.Sum("cphash_server_requests_total"), d.Sum("cphash_server_batches_total"),
		d.Sum("cphash_table_lookups_total"), d.Sum("cphash_table_hits_total"),
		d.Sum("cphash_table_inserts_total"),
		d.Sum("cphash_table_bytes_in_total"), d.Sum("cphash_table_bytes_out_total"))
	if p50, ok := d.Quantile("cphash_op_latency_ns", 0.5); ok {
		p99, _ := d.Quantile("cphash_op_latency_ns", 0.99)
		p999, _ := d.Quantile("cphash_op_latency_ns", 0.999)
		fmt.Printf("server op latency: p50≤%.0f p99≤%.0f p999≤%.0f ns\n", p50, p99, p999)
	}
	if bs, ok := d.Quantile("cphash_batch_size", 0.5); ok {
		fmt.Printf("server batch size: p50≤%.0f\n", bs)
	}
}

// printPerNode renders the client-side view of each member's traffic.
func printPerNode(res loadgen.Result) {
	addrs := make([]string, 0, len(res.Nodes))
	for a := range res.Nodes {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	var total int64
	for _, a := range addrs {
		total += res.Nodes[a].Ops
	}
	for _, a := range addrs {
		s := res.Nodes[a]
		share := 0.0
		if total > 0 {
			share = 100 * float64(s.Ops) / float64(total)
		}
		fmt.Printf("node %s: %d ops (%.1f%%), %d errors, %d retries, %d dials\n",
			a, s.Ops, share, s.Errors, s.Retries, s.Dials)
	}
}

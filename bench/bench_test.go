package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"cphash/internal/workload"
)

// The histogram must resolve a quantile to better than 1 %: the latency
// bounds in BENCHMARK.json are 10–15 %.
func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := newHist()
	var ref []float64
	for i := 0; i < 200_000; i++ {
		// Log-uniform from 100 ns to 1 s, plus a cluster of small exact values.
		v := int64(math.Exp(rng.Float64()*math.Log(1e7)) * 100)
		if i%10 == 0 {
			v = int64(rng.Intn(300))
		}
		h.record(v)
		ref = append(ref, float64(v))
	}
	sort.Float64s(ref)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want := ref[int(math.Ceil(q*float64(len(ref))))-1]
		got := h.quantile(q)
		if err := math.Abs(got-want) / math.Max(want, 1); err > 0.01 {
			t.Errorf("q%.3f: hist %.1f, sorted reference %.1f, relative error %.4f", q, got, want, err)
		}
	}
	if n := h.above(0.99); n < 1500 || n > 2000 {
		t.Errorf("above(0.99) = %d of %d samples, want about 1 %%", n, h.n)
	}
}

func TestHistBucketsAreMonotone(t *testing.T) {
	last := -1
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 257, 1000, 1 << 20, 1<<20 + 1<<13, 1 << 39, 1 << 50} {
		b := histBucket(v)
		if b < last || b >= histBuckets {
			t.Fatalf("bucket(%d) = %d after %d (of %d)", v, b, last, histBuckets)
		}
		last = b
		if v < 1<<40 {
			if mid := histValue(b); math.Abs(mid-float64(v)) > float64(v)/128 {
				t.Errorf("bucket of %d has midpoint %.1f", v, mid)
			}
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance procedure uses to judge spread.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// >>> statistics.quantiles([1, 2, 4, 8], n=4)
	// [1.25, 3.0, 7.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles(1,2,4,8) = %v, %v; Python gives 1.25, 7.0", q1, q3)
	}
}

func TestPoissonScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	a, b := poissonUnit(7, 1, 50_000), poissonUnit(7, 1, 50_000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("arrival times not increasing at %d", i)
		}
	}
	if c := poissonUnit(8, 1, 100); c[99] == a[99] {
		t.Error("another seed gave the same schedule")
	}
	if d := poissonUnit(7, 0, 100); d[99] == a[99] {
		t.Error("another generator gave the same schedule")
	}
	if mean := a[len(a)-1] / float64(len(a)); math.Abs(mean-1) > 0.02 {
		t.Errorf("mean gap %.4f, want 1 (unit rate)", mean)
	}
	// dueAt scales by the rate and continues past the end of the table.
	if got, want := dueAt(a, 10, 1000), int64(a[10]/1000*1e9); got != want {
		t.Errorf("dueAt = %d, want %d", got, want)
	}
	if dueAt(a, len(a), 1) <= dueAt(a, len(a)-1, 1) {
		t.Error("schedule does not continue past its table")
	}
}

func TestStreamIsDeterministicAndKeepsItsGap(t *testing.T) {
	spec := workload.Default(1 << 16) // 8192 keys
	const n, gap = 20_000, 512
	a := genStream(spec, 3, 0, 2, n, gap, nil)
	b := genStream(spec, 3, 0, 2, n, gap, nil)
	sets := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different stream at %d", i)
		}
		if a[i].key()&1 != 0 {
			t.Fatalf("generator 0 drew key %d of generator 1's half", a[i].key())
		}
		if a[i].isSet() {
			sets++
			for j := 1; j <= gap; j++ { // wraps: the stream is replayed in a loop
				if o := a[(i+j)%n]; o.key() == a[i].key() {
					t.Fatalf("key %d SET at %d reappears %d ops later", a[i].key(), i, j)
				}
			}
		}
	}
	if frac := float64(sets) / n; math.Abs(frac-0.3) > 0.02 {
		t.Errorf("%.3f of the ops are SETs, want 0.3", frac)
	}
	keys := map[uint64]bool{}
	for _, k := range universe(spec, 0, 2, nil) {
		keys[k] = true
	}
	for _, o := range a {
		if !keys[o.key()] {
			t.Fatalf("stream key %d is not in the preload universe", o.key())
		}
	}
}

// One stalled slice must not move the slice-median estimators, which is
// why they are medians and not whole-phase figures.
func TestSliceMedianIgnoresOneStalledSlice(t *testing.T) {
	const slices = 6
	st := newGenStats(slices*time.Second, true, nil)
	for s := 0; s < slices; s++ {
		for i := 0; i < 10_000; i++ {
			due := int64(s)*sliceNs + int64(i)*sliceNs/10_000
			lat := int64(100_000 + i%1000) // 100–101 µs
			if s == 2 {
				if i >= 4000 {
					continue // the stall: 60 % of the slice's requests complete late…
				}
				lat = 50_000_000 // …and the rest take 50 ms
			}
			st.sched++
			st.finish(due+lat, due)
		}
	}
	r := mergeStats([]*genStats{st}, 10_000)
	if got := r.sliceRate(); got != 10_000 {
		t.Errorf("sliceRate = %v, want 10000 in spite of the stalled slice", got)
	}
	if p99 := r.sliceQuantileUs(0.99); p99 < 100 || p99 > 102 {
		t.Errorf("median slice p99 = %.1f us, want ~101", p99)
	}
	whole := newHist()
	for _, h := range r.lat {
		whole.merge(h)
	}
	if p99 := whole.quantile(0.99) / 1e3; p99 < 10_000 {
		t.Errorf("whole-phase p99 = %.1f us: the synthetic stall should dominate it", p99)
	}
	if r.backlogGrew() {
		t.Error("a stall in the middle is not a growing backlog")
	}
}

func TestBacklogGrowthIsSeen(t *testing.T) {
	st := newGenStats(4*time.Second, true, nil)
	for s := 0; s < 4; s++ {
		for i := 0; i < 1000; i++ {
			due := int64(s)*sliceNs + int64(i)*sliceNs/1000
			st.finish(due+int64(s+1)*int64(100*time.Millisecond), due) // each slice waits longer
		}
	}
	if r := mergeStats([]*genStats{st}, 1000); !r.backlogGrew() {
		t.Error("latency rising 100 ms per slice was not seen as a growing backlog")
	}
}

func TestTextCodecRoundTrip(t *testing.T) {
	val := []byte("binary\r\nvalue with END\r\n inside")
	var wire []byte
	wire = appendTextSet(wire, 12345678901234567, val)
	wire = appendTextGet(wire, 42)
	wantReq := "set k12345678901234567 0 0 31\r\nbinary\r\nvalue with END\r\n inside\r\nget k42\r\n"
	if string(wire) != wantReq {
		t.Fatalf("encoded %q, want %q", wire, wantReq)
	}

	reply := "STORED\r\nVALUE k42 0 31\r\n" + string(val) + "\r\nEND\r\nEND\r\n"
	r := bufio.NewReader(strings.NewReader(reply))
	if err := readTextSet(r); err != nil {
		t.Fatal(err)
	}
	got, hit, err := readTextGet(r, 42, nil)
	if err != nil || !hit || !bytes.Equal(got, val) {
		t.Fatalf("hit: %q %v %v", got, hit, err)
	}
	if _, hit, err := readTextGet(r, 43, nil); err != nil || hit {
		t.Fatalf("miss: hit=%v err=%v", hit, err)
	}

	for _, bad := range []string{
		"VALUE k41 0 2\r\nab\r\nEND\r\n", // another key's value
		"VALUE k42 0 2\r\nabXXEND\r\n",   // data block not CRLF-terminated
		"VALUE k42 0\r\n",                // no length
		"VALUE k42 0 x\r\n",              // bad length
		"SERVER_ERROR upstream\r\n",
		"VALUE k42 0 2\r\nab\r\nVALUE k42 0 2\r\n", // no END
	} {
		if _, _, err := readTextGet(bufio.NewReader(strings.NewReader(bad)), 42, nil); err == nil {
			t.Errorf("reply %q was accepted", bad)
		}
	}
	if err := readTextSet(bufio.NewReader(strings.NewReader("NOT_STORED\r\n"))); err == nil {
		t.Error("NOT_STORED was accepted as a set reply")
	}
}

// Every name this program emits must be in BENCHMARK.json, and the other
// way round, or the driver and the code disagree about what is measured.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, code []string, file []metricDef) {
		t.Helper()
		inFile := map[string]metricDef{}
		for _, m := range file {
			inFile[m.Name] = m
		}
		if len(inFile) != len(file) || len(code) != len(file) {
			t.Errorf("%s: %d names in code, %d in BENCHMARK.json (%d distinct)", kind, len(code), len(file), len(inFile))
		}
		for _, n := range code {
			m, ok := inFile[n]
			switch {
			case !ok:
				t.Errorf("%s metric %q is emitted but not in BENCHMARK.json", kind, n)
			case !valid.MatchString(n):
				t.Errorf("%s metric name %q is not a valid name", kind, n)
			case m.Unit != units[n] || !unitOK.MatchString(m.Unit):
				t.Errorf("%s metric %q: unit %q in BENCHMARK.json, %q in code", kind, n, m.Unit, units[n])
			case m.Better != "lower" && m.Better != "higher":
				t.Errorf("%s metric %q: better = %q", kind, n, m.Better)
			}
			delete(inFile, n)
		}
		for n := range inFile {
			t.Errorf("%s metric %q is in BENCHMARK.json but never emitted", kind, n)
		}
	}
	check("end-to-end", endToEnd, bf.EndToEnd)
	check("per-layer", perLayer, bf.PerLayer)
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || !valid.MatchString(w.Name)) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
}

func TestWorkloadTable(t *testing.T) {
	for _, w := range workloads {
		if err := w.spec.Validate(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if !(w.rates[0] < w.rates[1] && w.rates[1] < w.rates[2]) || w.p99LimitUs <= 0 {
			t.Errorf("%s: rates %v, limit %v", w.name, w.rates, w.p99LimitUs)
		}
		if q := w.quick(); q.numKeys() < w.quickKeys-1 || q.numKeys() > w.quickKeys+1 {
			t.Errorf("%s: -quick has %d keys, want %d", w.name, q.numKeys(), w.quickKeys)
		}
	}
	if a, b := workloads[1], workloads[3]; !reflect.DeepEqual(a.spec, b.spec) || a.window != b.window {
		t.Error("mc_text must carry wire_get90's traffic exactly")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c, c * 1.01, c} }
	wide := func(c float64) []float64 { return []float64{c * 0.8, c * 0.9, c, c * 1.1, c * 1.2} }
	for _, tc := range []struct {
		m        metricDef
		old, new []float64
		want     string
	}{
		{lower, tight(100), tight(105), "within-bound"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(85), "better"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(115), "better"},
		{lower, wide(100), tight(100), "unresolved"},
		{lower, wide(100), wide(130), "worse"}, // a gate errs on the side of failing
		{lower, []float64{100}, []float64{104}, "within-bound"},
	} {
		if got := judge(tc.m, tc.old, tc.new); got.word != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s (change %.3f, spread %.3f)", tc.m.Better, tc.old, tc.new, got.word, tc.want, got.change, got.spread)
		}
	}
}

func TestParseMetricsAndBucketQuantile(t *testing.T) {
	before := parseMetrics(`# HELP x
# TYPE x counter
x_total{instance="a"} 5
x_total{instance="b"} 7
lat_ns_bucket{instance="a",le="100"} 10
lat_ns_bucket{instance="a",le="+Inf"} 10
lat_ns_count{instance="a"} 10
`)
	after := parseMetrics(`x_total{instance="a"} 15
x_total{instance="b"} 8
lat_ns_bucket{instance="a",le="100"} 60
lat_ns_bucket{instance="a",le="200"} 105
lat_ns_bucket{instance="a",le="400"} 110
lat_ns_bucket{instance="a",le="+Inf"} 110
lat_ns_count{instance="a"} 110
gauge 3.5
`)
	if d := delta(before, after, "x_total"); d != 11 {
		t.Errorf("delta over instances = %v, want 11", d)
	}
	if d := delta(before, after, "never_exported_total"); d != 0 {
		t.Errorf("a missing family reads %v, want 0", d)
	}
	if after.series != 8 {
		t.Errorf("series = %d, want 8", after.series)
	}
	// 100 new samples: 50 ≤ 100, 45 in (100,200], 5 in (200,400].
	for q, want := range map[float64]float64{0.5: 100, 0.9: 200, 0.99: 400} {
		if got := bucketQuantile(before, after, "lat_ns", q); got != want {
			t.Errorf("q%v = %v, want %v", q, got, want)
		}
	}
}

func TestResultLineShape(t *testing.T) {
	b, err := json.Marshal(resultLine{Correct: true, Attempted: 3, Metrics: map[string]value{"setup_s": {1.5, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}`; string(b) != want {
		t.Errorf("result line %s, want %s", b, want)
	}
}

// The subprocess smoke test builds cpserver and runs one -quick workload
// end to end; it needs the two CPUs to itself, so it is opt-in.
func TestSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") != "1" {
		t.Skip("set BENCH_SMOKE=1 to run the subprocess smoke test")
	}
	out, err := exec.Command("go", "run", ".", "-quick", "-workload", "wire_get90").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", res)
	}
}

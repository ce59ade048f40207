package obs

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHistBucketEdges checks that every value lands in a bucket whose
// upper edge is ≥ the value and within the 12.5% relative width bound.
func TestHistBucketEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(v int64) {
		b := histBucket(v)
		if b < 0 || b >= HistBuckets {
			t.Fatalf("value %d: bucket %d out of range", v, b)
		}
		up := BucketUpper(b)
		if up < v {
			t.Fatalf("value %d: bucket upper edge %d below the value", v, up)
		}
		if up-v > v/histSub+1 {
			t.Fatalf("value %d: bucket upper edge %d exceeds the 12.5%% width bound", v, up)
		}
		if b > 0 && BucketUpper(b-1) >= v {
			t.Fatalf("value %d: previous bucket %d already covers it (upper %d)", v, b-1, BucketUpper(b-1))
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	for i := 0; i < 100000; i++ {
		check(rng.Int63())
	}
	check(int64(1)<<62 - 1)
	check(int64(1) << 62)
	check(int64(^uint64(0) >> 1)) // max int64
	// Bucket edges are strictly increasing — required for the cumulative
	// Prometheus exposition to be monotone.
	for i := 1; i < HistBuckets; i++ {
		if BucketUpper(i) <= BucketUpper(i-1) {
			t.Fatalf("bucket %d upper %d not above bucket %d upper %d",
				i, BucketUpper(i), i-1, BucketUpper(i-1))
		}
	}
}

// TestHistQuantileProperty records random samples from several
// distributions and asserts every reported quantile sits between the
// exact sample quantile and the histogram's bucket-error bound above
// it, and that quantiles never decrease as q grows. Negative samples
// clamp to zero.
func TestHistQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	distributions := []struct {
		name string
		gen  func() int64
	}{
		{"uniform", func() int64 { return rng.Int63n(1_000_000) }},
		{"exp-ns", func() int64 { return int64(rng.ExpFloat64() * 50_000) }},
		{"heavy-tail", func() int64 {
			v := rng.Int63n(1000)
			if rng.Intn(100) == 0 {
				v = rng.Int63n(100_000_000)
			}
			return v
		}},
		{"tiny", func() int64 { return rng.Int63n(8) }},
		{"uint16", func() int64 { return rng.Int63n(1 << 16) }},
		{"negative-clamps", func() int64 { return rng.Int63n(2000) - 1000 }},
	}
	quantiles := []float64{0, 0.5, 0.9, 0.99, 0.999, 1}
	for _, d := range distributions {
		t.Run(d.name, func(t *testing.T) {
			var h Hist
			samples := make([]int64, 20000)
			for i := range samples {
				v := d.gen()
				h.Record(v)
				samples[i] = max(v, 0)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			snap := h.Snapshot()
			if snap.Count != int64(len(samples)) {
				t.Fatalf("count %d, want %d", snap.Count, len(samples))
			}
			prev := int64(-1)
			for _, q := range quantiles {
				exact := samples[int64(q*float64(len(samples)-1))]
				got := snap.Quantile(q)
				if got < prev {
					t.Errorf("q=%g: histogram %d below the previous quantile %d", q, got, prev)
				}
				prev = got
				if got < exact {
					t.Errorf("q=%g: histogram %d below exact %d", q, got, exact)
				}
				if got > exact+exact/histSub+1 {
					t.Errorf("q=%g: histogram %d exceeds exact %d by more than the bucket width bound", q, got, exact)
				}
			}
		})
	}
}

// TestHistRecordN checks that the batch-amortized form is equivalent to
// n individual records.
func TestHistRecordN(t *testing.T) {
	var a, b Hist
	for i := 0; i < 100; i++ {
		a.Record(1234)
	}
	b.RecordN(1234, 100)
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa != sb {
		t.Fatalf("RecordN(v,100) != 100×Record(v): %+v vs %+v", sb, sa)
	}
	b.RecordN(1, 0)
	b.RecordN(1, -5)
	if b.Count() != 100 {
		t.Fatalf("non-positive n must record nothing, count=%d", b.Count())
	}
}

// TestHistMergeAssociativity is the scrape-time aggregation contract:
// merging per-partition snapshots must give the same result in any
// grouping order, so collectors can aggregate incrementally.
func TestHistMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	parts := make([]HistSnapshot, 5)
	for p := range parts {
		var h Hist
		for i := 0; i < 1000; i++ {
			h.Record(rng.Int63n(1 << uint(10+p)))
		}
		parts[p] = h.Snapshot()
	}
	// left fold: ((((a+b)+c)+d)+e)
	left := parts[0]
	for _, p := range parts[1:] {
		left.Merge(p)
	}
	// right fold: a+(b+(c+(d+e)))
	right := parts[len(parts)-1]
	for i := len(parts) - 2; i >= 0; i-- {
		prev := parts[i]
		prev.Merge(right)
		right = prev
	}
	// pairwise tree: (a+b) + (c+d) + e
	ab, cd := parts[0], parts[2]
	ab.Merge(parts[1])
	cd.Merge(parts[3])
	tree := ab
	tree.Merge(cd)
	tree.Merge(parts[4])
	if left != right || left != tree {
		t.Fatal("snapshot merge is not associative across grouping orders")
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if left.Quantile(q) != tree.Quantile(q) {
			t.Fatalf("q=%g differs across merge orders", q)
		}
	}
}

// TestHistSub checks interval extraction: (later − earlier) must equal
// a histogram of only the interval's samples.
func TestHistSub(t *testing.T) {
	var h Hist
	for i := 0; i < 500; i++ {
		h.Record(int64(i))
	}
	before := h.Snapshot()
	var want Hist
	for i := 0; i < 300; i++ {
		v := int64(1000 + i*17)
		h.Record(v)
		want.Record(v)
	}
	delta := h.Snapshot()
	delta = delta.Sub(before)
	if delta != want.Snapshot() {
		t.Fatal("snapshot Sub does not isolate the interval distribution")
	}
}

// TestHeatMergeAssociativity mirrors the histogram contract for the
// per-slot heat aggregation.
func TestHeatMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parts := make([]HeatSnapshot, 4)
	for p := range parts {
		var h SlotHeat
		for i := 0; i < 2000; i++ {
			h.Record(rng.Intn(Slots), rng.Int63n(64))
		}
		parts[p] = h.Snapshot()
	}
	left := parts[0]
	for _, p := range parts[1:] {
		left.Merge(p)
	}
	right := parts[3]
	for i := 2; i >= 0; i-- {
		prev := parts[i]
		prev.Merge(right)
		right = prev
	}
	if left != right {
		t.Fatal("heat merge is not associative")
	}
}

// TestHeatSkew pins the skew metric's endpoints: uniform heat ≈ 1, all
// heat on one slot = Slots.
func TestHeatSkew(t *testing.T) {
	var uniform SlotHeat
	for s := 0; s < Slots; s++ {
		uniform.Record(s, 1)
	}
	us := uniform.Snapshot()
	if got := us.Skew(); got != 1 {
		t.Fatalf("uniform skew = %g, want 1", got)
	}
	var spike SlotHeat
	for i := 0; i < 100; i++ {
		spike.Record(42, 1)
	}
	ss := spike.Snapshot()
	if got := ss.Skew(); got != Slots {
		t.Fatalf("single-slot skew = %g, want %d", got, Slots)
	}
	if slot, ops := ss.MaxSlot(); slot != 42 || ops != 100 {
		t.Fatalf("MaxSlot = (%d,%d), want (42,100)", slot, ops)
	}
	var empty HeatSnapshot
	if empty.Skew() != 0 {
		t.Fatal("empty heat must report zero skew")
	}
}

// Prometheus text exposition (format version 0.0.4) and the pluggable
// registry subsystems publish through. Exposition is pull-based: the
// hot path only bumps counters; all formatting cost is paid by the
// scraper on GET /metrics.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// Registry is an ordered set of collector functions. Subsystems (or a
// server composing them) register a closure that emits their current
// state into an Expo; every scrape runs all collectors against a fresh
// one. Registering a closure over a dynamic set (e.g. a server's live
// instances) means membership changes need no unregistration.
type Registry struct {
	mu         sync.Mutex
	collectors []func(*Expo)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a collector; collectors run in registration order.
func (r *Registry) Register(fn func(*Expo)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Gather runs every collector into a fresh Expo.
func (r *Registry) Gather() *Expo {
	r.mu.Lock()
	fns := make([]func(*Expo), len(r.collectors))
	copy(fns, r.collectors)
	r.mu.Unlock()
	e := NewExpo()
	for _, fn := range fns {
		fn(e)
	}
	return e
}

// Handler serves the registry as Prometheus text exposition — the
// GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.Gather().WriteTo(w)
	})
}

// Expo buffers one scrape's samples, grouped by metric family so each
// family's # HELP/# TYPE header is emitted exactly once even when many
// instances contribute samples to the same name.
type Expo struct {
	families map[string]*family
	order    []string
}

type family struct {
	typ     string
	help    string
	samples []sample
}

type sample struct {
	suffix string // "", or "_bucket"/"_sum"/"_count" for histograms
	labels string // "" or `{k="v",...}`
	value  float64
}

// NewExpo returns an empty sample buffer.
func NewExpo() *Expo {
	return &Expo{families: make(map[string]*family)}
}

func (e *Expo) family(name, typ, help string) *family {
	f, ok := e.families[name]
	if !ok {
		f = &family{typ: typ, help: help}
		e.families[name] = f
		e.order = append(e.order, name)
	}
	return f
}

// Counter emits one cumulative counter sample.
func (e *Expo) Counter(name, help, labels string, v int64) {
	f := e.family(name, "counter", help)
	f.samples = append(f.samples, sample{labels: labels, value: float64(v)})
}

// Gauge emits one gauge sample.
func (e *Expo) Gauge(name, help, labels string, v float64) {
	f := e.family(name, "gauge", help)
	f.samples = append(f.samples, sample{labels: labels, value: v})
}

// Histogram emits a HistSnapshot as a cumulative-bucket Prometheus
// histogram. Only buckets that change the cumulative count are written
// (plus the mandatory +Inf), so the 488 internal buckets cost lines
// only where observations actually landed; quantiles recomputed from
// the exposition keep the histogram's native 12.5% error bound.
func (e *Expo) Histogram(name, help, labels string, s HistSnapshot) {
	f := e.family(name, "histogram", help)
	var cum int64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		f.samples = append(f.samples, sample{
			suffix: "_bucket",
			labels: spliceLabel(labels, "le", strconv.FormatInt(BucketUpper(i), 10)),
			value:  float64(cum),
		})
	}
	f.samples = append(f.samples,
		sample{suffix: "_bucket", labels: spliceLabel(labels, "le", "+Inf"), value: float64(s.Count)},
		sample{suffix: "_sum", labels: labels, value: float64(s.Sum)},
		sample{suffix: "_count", labels: labels, value: float64(s.Count)},
	)
}

// WriteTo renders the buffered samples in exposition order.
func (e *Expo) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, name := range e.order {
		f := e.families[name]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, f.typ)
		for _, s := range f.samples {
			b.WriteString(name)
			b.WriteString(s.suffix)
			b.WriteString(s.labels)
			b.WriteByte(' ')
			b.WriteString(formatValue(s.value))
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// formatValue renders a sample value; integral values print without an
// exponent so counter deltas diff exactly.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Labels renders name/value pairs as a Prometheus label set, e.g.
// Labels("instance", addr, "op", "get") → `{instance="...",op="get"}`.
// An empty pair list renders as the empty string.
func Labels(pairs ...string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(pairs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WithLabel returns labels with one more name/value pair appended —
// how collectors derive per-slot or per-peer label sets from a base
// instance label.
func WithLabel(labels, name, value string) string {
	return spliceLabel(labels, name, value)
}

// spliceLabel inserts one more label into a rendered label set.
func spliceLabel(labels, name, value string) string {
	extra := name + `="` + escapeLabelValue(value) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

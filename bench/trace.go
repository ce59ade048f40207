package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one traced interval: a layer call batch in a rung, or a stage
// of a sampled request. Times are nanoseconds since the tracer started;
// parent is the index of the enclosing span (-1 = none); spans of one
// request share req (-1 = not a request).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// traceEvery is the request sampling interval on the wire path.
const traceEvery = 1024

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay nothing for it.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add appends a batch of spans whose Parent fields index within the
// batch; they are rebased onto the tracer's list.
func (t *tracer) add(batch ...span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	base := len(t.spans)
	for _, s := range batch {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// layerRow is one line of the per-layer table written beside the spans.
type layerRow struct {
	Metric string   `json:"metric"`
	Value  *float64 `json:"value"` // null = n/a
	Unit   string   `json:"unit"`
	Note   string   `json:"note,omitempty"` // why n/a, or what was measured
}

func (t *tracer) write(p paths, workload string, rows []layerRow) (string, error) {
	dir := filepath.Join(p.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(name)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string     `json:"workload"`
		Layers   []layerRow `json:"layers"`
		Spans    []span     `json:"spans"`
	}{workload, rows, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return name, err
}

// layers collects the per-layer table of a traced run.
type layers struct {
	rows map[string]layerRow
}

func newLayers() *layers { return &layers{rows: map[string]layerRow{}} }

func (l *layers) set(name string, v float64, note string) {
	l.rows[name] = layerRow{Metric: name, Value: &v, Unit: units[name], Note: note}
}

// na marks every metric starting with prefix as not applicable.
func (l *layers) na(prefix, why string) {
	for _, n := range perLayer {
		if _, set := l.rows[n]; !set && strings.HasPrefix(n, prefix) {
			l.rows[n] = layerRow{Metric: n, Unit: units[n], Note: "n/a: " + why}
		}
	}
}

// table returns one row per per-layer metric, in perLayer order.
func (l *layers) table() []layerRow {
	l.na("", "not measured on this workload")
	out := make([]layerRow, 0, len(perLayer))
	for _, n := range perLayer {
		out = append(out, l.rows[n])
	}
	return out
}

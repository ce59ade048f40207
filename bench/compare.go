package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// suiteFile is what a full untraced run writes for -compare: per
// workload, each end-to-end metric's value in every run of the suite.
type suiteFile struct {
	Format    string                          `json:"format"`
	Seeds     []uint64                        `json:"seeds"`
	Seconds   int                             `json:"seconds"`
	Workloads map[string]map[string][]float64 `json:"workloads"`
	Attempted map[string]uint64               `json:"attempted"`
	Failed    map[string]uint64               `json:"failed"`
}

// suiteFormat marks files -compare accepts; -quick never writes one.
const suiteFormat = "cphash-bench-suite-1"

func (s *suiteFile) write(name string) error {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return err
	}
	return os.WriteFile(name, append(b, '\n'), 0o644)
}

func readSuite(name string) (*suiteFile, error) {
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var s suiteFile
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if s.Format != suiteFormat {
		return nil, fmt.Errorf("%s: not a result file of a full run (format %q)", name, s.Format)
	}
	return &s, nil
}

// runSuite runs every workload untraced, runs times, and prints the
// rows. Each run is a process of its own, exactly as the driver makes
// them: set-up time and peak memory of one workload must not depend on
// what the process ran before. The exit code is non-zero when any
// request failed.
func runSuite(seconds int, seed uint64, runs int, quick bool) (*suiteFile, int) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	self, err := os.Executable()
	if err != nil {
		return nil, fatal(err)
	}
	s := &suiteFile{Format: suiteFormat, Seconds: seconds,
		Workloads: map[string]map[string][]float64{}, Attempted: map[string]uint64{}, Failed: map[string]uint64{}}
	code := 0
	for r := 0; r < runs; r++ {
		s.Seeds = append(s.Seeds, seed+uint64(r))
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed + uint64(r)), "-seconds", fmt.Sprint(seconds)}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.CommandContext(ctx, self, args...)
			// An interrupt is passed on, so that the child stops its
			// servers and removes its data before it exits.
			cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
			cmd.WaitDelay = 15 * time.Second
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
			var res resultLine
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
				os.Stdout.Write(out)
				return s, fatal(fmt.Errorf("%s: no result (%v)", w.name, err))
			}
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			if s.Workloads[w.name] == nil {
				s.Workloads[w.name] = map[string][]float64{}
			}
			for _, n := range endToEnd {
				s.Workloads[w.name][n] = append(s.Workloads[w.name][n], res.Metrics[n].Value)
			}
			s.Attempted[w.name] += res.Attempted
			s.Failed[w.name] += res.Failed
			if !res.Correct {
				code = 3
			}
		}
	}
	return s, code
}

// verdict is one (workload, metric) row of a comparison.
type verdict struct {
	metric, word     string
	old, new, change float64 // change > 0 is worse, as a share of old
	spread           float64 // -1 when there are too few runs to tell
}

// judge compares the new values of a metric against the old ones by the
// direction and bound BENCHMARK.json fixes for it: medians decide better,
// within-bound or worse; when either side's interquartile range is wider
// than the bound, the difference cannot be resolved and the row says so
// instead of "within-bound".
func judge(m metricDef, old, new []float64) verdict {
	v := verdict{metric: m.Name, old: median(old), new: median(new), spread: -1}
	if v.old != 0 {
		v.change = (v.new - v.old) / v.old
		if m.Better == "higher" {
			v.change = -v.change
		}
	}
	for _, xs := range [][]float64{old, new} {
		if med := median(xs); len(xs) >= 4 && med != 0 {
			q1, q3 := quartiles(xs)
			if s := (q3 - q1) / med; s > v.spread {
				v.spread = s
			}
		}
	}
	switch {
	case v.change > m.Bound:
		v.word = "worse"
	case v.spread > m.Bound:
		v.word = "unresolved"
	case v.change < -m.Bound:
		v.word = "better"
	default:
		v.word = "within-bound"
	}
	return v
}

// compareSuites prints one row per (workload, metric) and returns the
// counts of worse and unresolved rows.
func compareSuites(bf *benchmarkFile, old, new *suiteFile) (worse, unresolved int) {
	fmt.Printf("%-14s %-16s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			o, n := old.Workloads[w.Name][m.Name], new.Workloads[w.Name][m.Name]
			if len(o) == 0 || len(n) == 0 {
				fmt.Printf("%-14s %-16s missing from a result file\n", w.Name, m.Name)
				worse++
				continue
			}
			v := judge(m, o, n)
			spread := "n/a"
			if v.spread >= 0 {
				spread = fmt.Sprintf("%.1f%%", 100*v.spread)
			}
			fmt.Printf("%-14s %-16s %14.6g %14.6g %+8.1f%% %8s %6.0f%%  %s\n",
				w.Name, m.Name, v.old, v.new, 100*v.change, spread, 100*m.Bound, v.word)
			switch v.word {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
		}
		if f := new.Failed[w.Name]; f > old.Failed[w.Name] {
			fmt.Printf("%-14s %-16s %14d %14d failed requests  worse\n", w.Name, "fail_frac", old.Failed[w.Name], f)
			worse++
		}
	}
	fmt.Println("change: share of the old median by which the new one is worse (negative = better), in the metric's own direction")
	return worse, unresolved
}

func compareFiles(bf *benchmarkFile, oldName, newName string) int {
	old, err := readSuite(oldName)
	if err != nil {
		return fatal(err)
	}
	new, err := readSuite(newName)
	if err != nil {
		return fatal(err)
	}
	worse, unresolved := compareSuites(bf, old, new)
	fmt.Printf("%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return 2
	}
	return 0
}

// agreeRun runs the suite twice on the same seeds and compares the two
// result sets in both directions: same code must agree with itself
// within the benchmark's own bounds.
func agreeRun(p paths, bf *benchmarkFile, seconds int, seed uint64, runs int) int {
	dir := filepath.Join(p.root, "bench", "out")
	var sets [2]*suiteFile
	for i, name := range []string{"seed-a.json", "seed-b.json"} {
		s, code := runSuite(seconds, seed, runs, false)
		if code != 0 {
			return code
		}
		if err := s.write(filepath.Join(dir, name)); err != nil {
			return fatal(err)
		}
		sets[i] = s
	}
	fmt.Println("--- a -> b")
	w1, u1 := compareSuites(bf, sets[0], sets[1])
	fmt.Println("--- b -> a")
	w2, u2 := compareSuites(bf, sets[1], sets[0])
	fmt.Printf("%d worse, %d unresolved over both directions\n", w1+w2, u1+u2)
	if w1+w2+u1+u2 > 0 {
		return 2
	}
	return 0
}

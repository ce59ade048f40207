// Command bench is the repository's benchmark: four workloads, measured
// end to end the way users meet the system (in-process callers of the
// table, network clients of the shipping cpserver binary), with a traced
// mode that prices each layer. See README.md beside this file.
//
//	go run -C bench . -seed 1                    every workload, end-to-end metrics
//	go run -C bench . -workload wire_get90       one workload; last line is JSON
//	go run -C bench . -workload mc_text -trace 1 per-layer metrics and spans
//	go run -C bench . -compare old.json new.json
//	go run -C bench . -agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// value is one metric in a result line or file.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a single-workload run prints last.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	var (
		workload = flag.String("workload", "", "run one workload and print a JSON result as the last line (default: all, as a table)")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 0, "seconds measured per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
		quick    = flag.Bool("quick", false, "short phases and 2^16 keys for local iteration; results are not comparable")
		runs     = flag.Int("runs", 1, "with no -workload: repeat the suite with seeds seed, seed+1, …")
		out      = flag.String("out", "", "with no -workload: write the results to this file for -compare")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		agree    = flag.Bool("agree", false, "run the suite twice on the same seeds and compare both ways")
	)
	flag.Parse()

	p, err := locate()
	if err != nil {
		return fatal(err)
	}
	bf, err := loadBenchmarkFile(p.root)
	if err != nil {
		return fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("-compare needs two result files"))
		}
		return compareFiles(bf, flag.Arg(0), flag.Arg(1))
	}

	if *seconds == 0 {
		*seconds = bf.RunSeconds
	}
	switch {
	case *agree:
		return agreeRun(p, bf, *seconds, *seed, *runs)
	case *workload == "":
		suite, code := runSuite(*seconds, *seed, *runs, *quick)
		if *out != "" && code == 0 {
			if *quick {
				fmt.Println("-quick results are not written: -compare would take them for real ones")
			} else if err := suite.write(*out); err != nil {
				return fatal(err)
			}
		}
		return code
	}

	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(400) // the streams are 64 MiB of live heap; collect rarely while timing
	jan.watchSignals()
	defer func() {
		if r := recover(); r != nil {
			jan.sweep()
			panic(r)
		}
		jan.sweep()
	}()
	if err := checkHost(p); err != nil {
		return fatal(err)
	}
	if err := buildServer(p); err != nil {
		return fatal(err)
	}
	pl := planFor(*seconds)
	if *quick {
		fmt.Println("### -quick: 2 s closed, 3 s open, 2^16 keys. These numbers are NOT comparable with any other run. ###")
		pl = planFor(5)
	}

	w, err := findWorkload(*workload)
	if err != nil {
		return fatal(err)
	}
	if *quick {
		w = w.quick()
	}
	var o *outcome
	names := endToEnd
	if *trace != 0 {
		names = perLayer
		o, err = runTraced(p, w, *seed, pl)
	} else {
		o, err = runUntraced(p, w, *seed, pl)
	}
	if err != nil {
		return fatal(err)
	}
	printRows(w.name, names, o)
	line := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	for _, n := range names {
		line.Metrics[n] = value{o.metrics[n], units[n]}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(b))
	if o.failed != 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d requests failed; first: %v\n", o.failed, o.attempted, o.err)
		return 3
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// printRows prints one "workload metric value unit" row per metric, then
// fail_frac (reported to the driver as the failed/attempted counts) and
// the notes.
func printRows(workload string, names []string, o *outcome) {
	for _, n := range names {
		fmt.Printf("%-14s %-32s %14.6g %s\n", workload, n, o.metrics[n], units[n])
	}
	frac := 0.0
	if o.attempted > 0 {
		frac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("%-14s %-32s %14.6g ratio (%d failed of %d attempted)\n", workload, "fail_frac", frac, o.failed, o.attempted)
	for _, n := range o.notes {
		fmt.Printf("# %s: %s\n", workload, n)
	}
}

// Command benchmark measures the DCCS search service end to end and layer
// by layer. One invocation runs one workload in a fresh process and
// prints its metrics, by name with their units, as one JSON object on
// the last line of standard output. From the checkout root:
//
//	bash benchmark/run.sh --workload hot-cache --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --compare <parent-runs-dir> <change-runs-dir>
//
// --trace 1 reports the per-layer metrics instead of the end-to-end ones
// and writes the run's spans as JSON lines to
// .bench_build/spans/<workload>-<seed>.jsonl. A run whose outputs
// fail a correctness gate prints "correct": false with no metrics and
// exits 1. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one traffic mix. mainTail and sideTail are the percentiles
// reported as main_tail_ms and side_tail_ms: the highest that keeps at
// least 15 samples beyond it at the op counts a 15 s window gives, so a
// slower machine still clears minBeyond. hot-cache reports p98, not p99:
// the 60 samples beyond p99 are a handful of collector pauses and move
// by 20-30% between runs.
type workload struct {
	name               string
	mainTail, sideTail float64
	run                func(r *runner) (*outcome, error)
}

var workloads = []workload{
	{"hot-cache", 0.98, 0.90, hotCache},
	{"cold-search", 0.90, 0.75, coldSearch},
	{"live-mixed", 0.90, 0.75, liveMixed},
	{"cold-start", 0.90, 0.90, coldStart},
}

// sizes scales a workload's inputs; the smoke tests shrink them.
type sizes struct {
	serveN int // vertices of the serve graph
	liveN  int // vertices of the live graph
	setups int // set-ups per run; setup_s is their median
	prefix int // leading engine-run query items whose core.* counts are averaged
}

// fullSizes fit a 15 s window with its set-up and checks in about 20 s on
// 2 vCPUs.
var fullSizes = sizes{serveN: 20000, liveN: 20000, setups: 9, prefix: 64}

// runner carries one run's parameters to its workload.
type runner struct {
	seed               int64
	window             time.Duration
	size               sizes
	mainTail, sideTail float64
	trace              *tracer // nil in an untraced run
	workDir            string  // scratch files
	log                io.Writer
}

func (r *runner) logf(format string, args ...any) { fmt.Fprintf(r.log, format+"\n", args...) }

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int
	wrong             []string // correctness-gate failures
	metrics           map[string]float64
}

// fail records a correctness-gate failure; the run then reports no
// metrics.
func (o *outcome) fail(format string, args ...any) {
	o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hot-cache, cold-search, live-mixed or cold-start")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics and writes spans, 0 reports end-to-end metrics")
	compare := fs.Bool("compare", false, "compare two directories of run outputs: --compare <parent> <change>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: --compare needs two directories")
			return 2
		}
		return compareDirs("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	r := &runner{
		seed: *seed, window: time.Duration(*seconds) * time.Second, size: fullSizes,
		mainTail: w.mainTail, sideTail: w.sideTail, log: stderr,
		workDir: filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
	}
	if *trace == 1 {
		r.trace = &tracer{origin: time.Now()}
	}
	defer os.RemoveAll(r.workDir)
	o, err := w.run(r)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	for _, msg := range o.wrong[:min(len(o.wrong), 10)] {
		fmt.Fprintf(stderr, "WRONG: %s\n", msg)
	}
	res, err := finish(o, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if r.trace != nil && res.Correct {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
		if err := writeSpans(path, r.trace.spans); err != nil {
			fmt.Fprintf(stderr, "benchmark: spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %d written to %s\n", len(r.trace.spans), path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// finish turns an outcome into the printed result: the end-to-end metrics
// of an untraced run or the per-layer metrics of a traced one, each
// required, or no metrics at all when a gate failed.
func finish(o *outcome, traced bool) (*result, error) {
	res := &result{Correct: len(o.wrong) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	if !res.Correct {
		return res, nil
	}
	if res.Attempted < 1 {
		return nil, errors.New("no op was attempted")
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	var missing []string
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return res, nil
}

// liveHeapMiB is the live heap after forced collections; the second one
// empties what sync.Pools kept through the first.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

var probeSink uint64

// cpuProbe times a fixed CPU-bound loop, median of 5. It depends on the
// machine only, so its drift between runs is the machine's drift.
func cpuProbe() float64 {
	var xs []float64
	for k := 0; k < 5; k++ {
		t := time.Now()
		h := uint64(14695981039346656037)
		for i := uint64(0); i < 20_000_000; i++ {
			h = (h ^ i) * 1099511628211
		}
		probeSink += h
		xs = append(xs, ms(time.Since(t)))
	}
	return median(xs)
}

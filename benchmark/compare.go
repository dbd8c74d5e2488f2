package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// benchSpec is the part of BENCHMARK.json --compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet holds one directory's runs of one workload: the untraced runs'
// values per metric, and the traced runs' main p50.
type runSet struct {
	values    map[string][]float64
	tracedP50 []float64
	incorrect int
}

// loadRuns reads dir/<workload>/*.json, each the standard output of one
// run; files whose name starts with "trace" are traced runs.
func loadRuns(dir, workload string) (*runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, workload, "*.json"))
	if err != nil {
		return nil, err
	}
	rs := &runSet{values: map[string][]float64{}}
	for _, p := range paths {
		res, err := lastResult(p)
		if err != nil {
			return nil, err
		}
		switch {
		case !res.Correct:
			rs.incorrect++
		case strings.HasPrefix(filepath.Base(p), "trace"):
			if v, ok := res.Metrics["loadgen.main_p50_ms"]; ok {
				rs.tracedP50 = append(rs.tracedP50, v.Value)
			}
		default:
			for name, v := range res.Metrics {
				rs.values[name] = append(rs.values[name], v.Value)
			}
		}
	}
	return rs, nil
}

// lastResult parses the last non-empty line of a run's output.
func lastResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s: last line: %w", path, err)
	}
	return &res, nil
}

// quartiles are Python's statistics.quantiles(xs, n=4), the exclusive
// method, which the bounds in BENCHMARK.json are checked with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// compareDirs applies the no-regression rule to every end-to-end metric
// of every workload: the change's median may be worse than the parent's
// by at most the metric's bound. Where the parent's own quartile spread
// exceeds the bound the pairing is unresolved, unless every change run
// beats every parent run. It exits 1 when a pairing regressed or a run
// was incorrect.
func compareDirs(specPath, parent, change string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", specPath, err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-12s %-14s %28s %28s %8s %6s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "bound", "verdict")
	for _, w := range spec.Workloads {
		a, err := loadRuns(parent, w.Name)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		b, err := loadRuns(change, w.Name)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		if a.incorrect+b.incorrect > 0 {
			fmt.Fprintf(stdout, "%-12s %d parent and %d change runs were incorrect\n", w.Name, a.incorrect, b.incorrect)
			code = 1
		}
		for _, m := range spec.EndToEnd {
			av, bv := a.values[m.Name], b.values[m.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(stdout, "%-12s %-14s missing (%d parent, %d change runs)\n", w.Name, m.Name, len(av), len(bv))
				continue
			}
			verdict := judge(av, bv, m.Better, m.Bound)
			if verdict == "REGRESSED" {
				code = 1
			}
			a1, a2, a3 := quartiles(av)
			b1, b2, b3 := quartiles(bv)
			fmt.Fprintf(stdout, "%-12s %-14s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, a2, a1, a3, b2, b1, b3, 100*(b2-a2)/a2, 100*m.Bound, verdict)
		}
		for _, s := range []struct {
			name string
			rs   *runSet
		}{{"parent", a}, {"change", b}} {
			if p50 := s.rs.values["main_p50_ms"]; len(s.rs.tracedP50) > 0 && len(p50) > 0 {
				fmt.Fprintf(stdout, "%-12s trace_overhead (%s): traced main p50 %.4g ms vs untraced median %.4g ms: %+.4g ms\n",
					w.Name, s.name, median(s.rs.tracedP50), median(p50), median(s.rs.tracedP50)-median(p50))
			}
		}
	}
	return code
}

// judge is the verdict on one metric of one workload.
func judge(parent, change []float64, better string, bound float64) string {
	_, pm, _ := quartiles(parent)
	_, cm, _ := quartiles(change)
	worse := (cm - pm) / pm
	allBetter := slices.Max(change) < slices.Min(parent)
	if better == "higher" {
		worse = -worse
		allBetter = slices.Min(change) > slices.Max(parent)
	}
	if spread(parent) > bound {
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	if worse > bound {
		return "REGRESSED"
	}
	return "ok"
}

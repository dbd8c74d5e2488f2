// Command benchdiff compares two BENCH_scale.json artifacts written by
// dccs-bench -gauntlet and fails when a gated value regressed beyond
// its tolerance: the CI and nightly bench-regression gate.
//
// Usage:
//
//	benchdiff -old bench-prev/BENCH_scale.json -new bench-out/BENCH_scale.json
//
// An artifact lists its gated values under "metrics", one row per
// dataset and name, and each row states its unit and whether lower or
// higher is better. Rows are paired by (dataset, name):
//
//   - a lower-is-better row regresses when new > 2 × old. Rows in ms are
//     first clamped up to a 5 ms noise floor on both sides: quick-scale
//     CI timings jitter at the single-millisecond level, while a blow-up
//     from a sub-floor baseline (3 ms → 500 ms) still trips the gate;
//   - a higher-is-better row regresses when new × 4 < old. Ratios have
//     no absolute floor (they may be the quotient of two sub-floor
//     timings), so they are gated at the factor squared as a backstop.
//
// The new artifact's unit and direction decide. A row present on only
// one side is skipped with a note. A missing baseline, or one without
// metric rows (written before rows carried their direction), passes
// with a note, so the gate heals itself after an expired artifact or a
// schema change. Exit codes: 0 ok, 1 regression found, 2 usage or read
// error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
)

const (
	factor  = 2.0 // tolerated slowdown of a lower-is-better row
	floorMS = 5.0 // ms rows are clamped up to this before comparison
)

// row is one gated value of a BENCH_scale.json artifact.
type row struct {
	Dataset string  `json:"dataset"`
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Value   float64 `json:"value"`
}

func main() {
	oldPath := flag.String("old", "", "baseline BENCH_scale.json")
	newPath := flag.String("new", "", "fresh BENCH_scale.json")
	flag.Parse()
	if *oldPath == "" || *newPath == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -old <BENCH_scale.json> -new <BENCH_scale.json>")
		os.Exit(2)
	}
	os.Exit(run(*oldPath, *newPath, os.Stdout, os.Stderr))
}

// run compares the artifacts at oldPath and newPath, prints one line
// per row, and returns the exit code.
func run(oldPath, newPath string, stdout, stderr io.Writer) int {
	fresh, err := load(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if len(fresh) == 0 {
		fmt.Fprintf(stderr, "benchdiff: %s has no metric rows\n", newPath)
		return 2
	}
	base, err := load(oldPath)
	if errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(stdout, "benchdiff: no baseline at %s; passing\n", oldPath)
		return 0
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if len(base) == 0 {
		fmt.Fprintf(stdout, "benchdiff: baseline %s has no metric rows (older schema); passing\n", oldPath)
		return 0
	}

	type key struct{ dataset, name string }
	byKey := make(map[key]row, len(base))
	for _, r := range base {
		byKey[key{r.Dataset, r.Name}] = r
	}
	regressions := 0
	for _, nr := range fresh {
		k := key{nr.Dataset, nr.Name}
		or, ok := byKey[k]
		if !ok {
			fmt.Fprintf(stdout, "skip: %s %s has no baseline\n", nr.Dataset, nr.Name)
			continue
		}
		delete(byKey, k)
		verdict, regressed, err := compare(or.Value, nr)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %s: %v\n", newPath, err)
			return 2
		}
		if regressed {
			regressions++
		}
		fmt.Fprintf(stdout, "  %-10s %-14s %14.6g -> %14.6g  %s\n", nr.Dataset, nr.Name, or.Value, nr.Value, verdict)
	}
	for _, r := range base {
		if _, ok := byKey[key{r.Dataset, r.Name}]; ok {
			fmt.Fprintf(stdout, "skip: %s %s is missing from the new artifact\n", r.Dataset, r.Name)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "\nbenchdiff: %d regression(s)\n", regressions)
		return 1
	}
	fmt.Fprintln(stdout, "\nbenchdiff: no regressions")
	return 0
}

// compare judges the new row against its baseline value in the
// direction the row states.
func compare(old float64, nr row) (verdict string, regressed bool, err error) {
	switch nr.Better {
	case "lower":
		o, n := old, nr.Value
		if nr.Unit == "ms" {
			o, n = max(o, floorMS), max(n, floorMS)
		}
		if n > o*factor {
			return fmt.Sprintf("REGRESSION %.2fx higher", ratio(nr.Value, old)), true, nil
		}
	case "higher":
		if nr.Value*factor*factor < old {
			return fmt.Sprintf("REGRESSION %.2fx lower", ratio(old, nr.Value)), true, nil
		}
	default:
		return "", false, fmt.Errorf("%s %s: better = %q, want \"lower\" or \"higher\"", nr.Dataset, nr.Name, nr.Better)
	}
	return fmt.Sprintf("ok (%.2fx)", ratio(nr.Value, old)), false, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// load reads the metric rows of the artifact at path.
func load(path string) ([]row, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a struct {
		Metrics []row `json:"metrics"`
	}
	if err := json.Unmarshal(blob, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a.Metrics, nil
}

// Command dccs-bench regenerates the tables and figures of the paper's
// evaluation section (§VI) on the synthetic stand-in datasets, and runs
// the scale gauntlet that gates DCCS against MiMAG.
//
// Usage:
//
//	dccs-bench -fig all            # every figure (12–32)
//	dccs-bench -fig 14             # one figure
//	dccs-bench -fig 29 -scale 1    # dataset scale factor for the 4 large graphs
//	dccs-bench -quick              # trimmed grids + small datasets (smoke run)
//	dccs-bench -out ./out          # directory for artifacts (Fig 31 DOT file)
//	dccs-bench -parallel           # serial vs parallel engine speedup table
//	dccs-bench -gauntlet -out ./out        # scale gauntlet: streamed planted-
//	dccs-bench -gauntlet -quick -out ./out # community graphs, DCCS vs MiMAG
//	                                       # under matched budgets, scored
//	                                       # against ground truth; fails unless
//	                                       # DCCS wins F1 and p50 on every
//	                                       # dataset (writes BENCH_scale.json)
//
// The mode flags (-parallel, -gauntlet) are mutually exclusive; setting
// both is a usage error. Timings of the library, the server and the
// storage formats live in the Go benchmarks (go test -bench) and in the
// repository benchmark (bash benchmark/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure number (12–32) or \"all\"")
	scale := flag.Float64("scale", 1.0, "scale factor for the four large synthetic datasets")
	seed := flag.Int64("seed", 1, "random seed for datasets and algorithms")
	quick := flag.Bool("quick", false, "trimmed parameter grids and small datasets")
	out := flag.String("out", "", "directory for artifact files (empty = no artifacts)")
	parallel := flag.Bool("parallel", false, "run the serial-vs-parallel engine comparison instead of a figure")
	gauntlet := flag.Bool("gauntlet", false, "run the scale gauntlet (DCCS vs MiMAG on streamed planted graphs) instead of a figure")
	flag.Parse()

	if *parallel && *gauntlet {
		fmt.Fprintln(os.Stderr, "dccs-bench: at most one of -parallel, -gauntlet may be set")
		os.Exit(2)
	}

	s := &bench.Suite{Scale: *scale, Seed: *seed, Quick: *quick, OutDir: *out, W: os.Stdout}
	var err error
	if *gauntlet {
		err = s.RunGauntlet()
	} else if *parallel {
		err = s.RunParallel()
	} else if *fig == "all" {
		err = s.RunAll()
	} else {
		var n int
		n, err = strconv.Atoi(*fig)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dccs-bench: invalid -fig %q\n", *fig)
			os.Exit(2)
		}
		err = s.Run(n)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dccs-bench: %v\n", err)
		os.Exit(1)
	}
}

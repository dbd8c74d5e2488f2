// Command dccs runs diversified coherent core search on a multi-layer
// graph stored either in the text edge-list format:
//
//	mlg <n> <layers>
//	<layer> <u> <v>
//	...
//
// or in the .mlgb binary CSR format (mlgen -format binary); the format
// is sniffed from the file's magic bytes, so both kinds of path are
// interchangeable.
//
// Usage:
//
//	dccs -d 4 -s 3 -k 10 graph.mlg             # auto algorithm selection
//	dccs -algo greedy -d 4 -s 3 -k 10 graph.mlgb
//	dccs -algo bu -stats graph.mlg             # print search statistics
//	dccs -algo td -json graph.mlg              # machine-readable output
//	dccs -workers 8 graph.mlg                  # parallel search engine
//	dccs -timeout 2s graph.mlg                 # deadline-bounded search
//	dccs -max-nodes 10000 graph.mlg            # node-budgeted search
//	dccs -snapshot graph.mlgs graph.mlgb       # reuse engine artifacts
//
// With -snapshot, previously saved engine artifacts (per-layer coreness,
// per-d removal hierarchies and the d-CCs memoized on them) are restored
// before the query — the first query of this process skips their builds,
// and a repeated query its d-CC peels — and the file is refreshed with
// whatever artifacts exist after the query. A missing
// snapshot file is not an error (the first run creates it); a stale one
// (written for a different graph) is reported and ignored.
//
// The search runs through a dccs.Engine, so it is cancellable: a timeout
// or an interrupt (Ctrl-C) stops the search at the next tree-node
// expansion and prints the valid partial result found so far, marked
// truncated, instead of dying with no output. A second interrupt kills
// the process.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	dccs "repro"
)

func main() {
	algo := flag.String("algo", "auto", "algorithm: auto, greedy, bu, td, exact")
	d := flag.Int("d", 4, "minimum degree threshold d")
	s := flag.Int("s", 3, "minimum support threshold s (layer-subset size)")
	k := flag.Int("k", 10, "number of diversified d-CCs")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "parallel workers: 1 = serial, N > 1 = fan out the search; 0 = auto (parallel materialization, serial search)")
	timeout := flag.Duration("timeout", 0, "search deadline (0 = none); on expiry the partial result is printed")
	maxNodes := flag.Int("max-nodes", 0, "search-tree node budget (0 = unlimited); anytime search when positive")
	stats := flag.Bool("stats", false, "print search statistics")
	asJSON := flag.Bool("json", false, "emit the result as JSON")
	snapshot := flag.String("snapshot", "", "engine snapshot file: restored before the query when present, refreshed after")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dccs [flags] <graph.mlg|graph.mlgb>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	g, err := dccs.ReadGraphFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	eng, err := dccs.NewEngine(g, dccs.EngineConfig{Workers: *workers})
	if err != nil {
		fail(err)
	}
	if *snapshot != "" {
		if err := eng.LoadSnapshot(*snapshot); err != nil && !errors.Is(err, os.ErrNotExist) {
			// A bad snapshot must not block serving: report and run cold.
			fmt.Fprintf(os.Stderr, "dccs: ignoring snapshot: %v\n", err)
		}
	}

	// An interrupt or an expired -timeout cancels the query context; the
	// engine then returns the partial result instead of dying mid-search.
	ctx := context.Background()
	var cancel context.CancelFunc
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()
	go func() {
		// Once the context is done (first interrupt, or timeout), restore
		// the default signal disposition so a second Ctrl-C kills the
		// process even if the search is between cancellation checkpoints.
		<-ctx.Done()
		stop()
	}()

	res, err := eng.Search(ctx, dccs.Query{
		D: *d, S: *s, K: *k, Seed: *seed,
		Algorithm:    dccs.Algorithm(*algo),
		MaxTreeNodes: *maxNodes,
	})
	if err != nil {
		fail(err)
	}
	if *snapshot != "" {
		// Refresh the snapshot with whatever artifacts this query built
		// (plus any it inherited), so the next process starts warm.
		if err := eng.SaveSnapshot(*snapshot); err != nil {
			fmt.Fprintf(os.Stderr, "dccs: saving snapshot: %v\n", err)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fail(err)
		}
		return
	}
	st := g.Stats()
	fmt.Printf("graph: n=%d layers=%d edges=%d (union %d)\n", st.N, st.Layers, st.TotalEdges, st.UnionEdges)
	fmt.Printf("top-%d diversified %d-CCs on %d layers (algorithm %s): cover %d vertices\n",
		*k, *d, *s, res.Stats.Algorithm, res.CoverSize)
	if res.Stats.Truncated {
		fmt.Printf("[truncated: %s — partial result, approximation guarantee void]\n",
			truncationCause(res.Stats, ctx))
	}
	fmt.Println()
	for i, c := range res.Cores {
		fmt.Printf("#%d layers=%v |vertices|=%d\n", i+1, c.Layers, len(c.Vertices))
		if len(c.Vertices) <= 30 {
			fmt.Printf("   vertices=%v\n", c.Vertices)
		}
	}
	if *stats {
		fmt.Printf("\nstats: %+v\n", res.Stats)
	}
}

// truncationCause names what stopped the search early, reading the
// exact cause from the context rather than re-deriving it from timings.
func truncationCause(st dccs.Stats, ctx context.Context) string {
	switch {
	case !st.Interrupted:
		return "node budget exhausted"
	case errors.Is(context.Cause(ctx), context.DeadlineExceeded):
		return "deadline exceeded"
	default:
		return "interrupted"
	}
}

// fail prints err and exits 1. Library errors already carry the "dccs: "
// prefix; others get it here, so every message carries it once.
func fail(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "dccs: ") {
		msg = "dccs: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}

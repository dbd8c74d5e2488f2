// Command dccs-serve is the production HTTP front end of the DCCS
// engine: it loads one or more multi-layer graphs (text .mlg or binary
// .mlgb, sniffed), wraps each in a long-lived dccs.Engine, and serves
// JSON queries with result caching, request coalescing, bounded
// admission, and snapshot-backed warm starts.
//
// Usage:
//
//	dccs-serve graph.mlgb                        # serve one graph as "graph"
//	dccs-serve social=a.mlgb web=b.mlg           # serve several, named
//	dccs-serve -addr :8080 -warm 3,4,5 g.mlgb    # prebuild per-d artifacts
//	dccs-serve -snapshot-dir /var/lib/dccs \
//	           -snapshot-interval 5m g.mlgb      # warm-start + persistence
//	dccs-serve -cache 4096 -max-inflight 16 \
//	           -queue-depth 64 g.mlgb            # capacity tuning
//	dccs-serve -mutable all g.mlgb               # accept live edge updates
//	dccs-serve -mmap huge.mlgb                   # zero-copy mapped load
//	dccs-serve -max-batch 128 g.mlgb             # batch endpoint sizing
//
// -mmap opens .mlgb graphs through the OS page cache instead of heap
// decoding them: nothing is copied onto the heap, and replicas serving
// the same file share one physical copy. Before serving, each mapped
// file is verified with one O(m) pass over its neighbor ids (the bytes
// the first fingerprint and coreness build read anyway), so a corrupt
// file fails startup with an error naming it instead of panicking the
// first search. Non-binary graphs fall back to the normal load with a
// log note. See DESIGN.md § mmap load for the trust model.
//
// Endpoints (see API.md — also served at /v1/docs — for the contract):
//
//	POST /v1/search              {"graph","d","s","k","seed","algorithm","timeout_ms",...}
//	POST /v1/search/batch        {"graph","queries":[...],"timeout_ms"} (≤ -max-batch queries)
//	GET  /v1/graphs              served graphs with engine metrics
//	POST /v1/graphs/{id}/edges   apply an edge-update batch (-mutable graphs)
//	GET  /v1/docs                this API's contract as markdown
//	GET  /healthz                liveness (503 while draining) + per-graph version/mmap
//	GET  /metrics                Prometheus text format
//
// On SIGINT/SIGTERM the server drains gracefully: new queries are
// rejected, in-flight searches are cancelled and return their valid
// partial results marked truncated, artifacts are snapshotted (when
// -snapshot-dir is set), and the listener closes. A second signal
// exits immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	dccs "repro"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("cache", 0, "result-cache capacity in entries (0 = default 1024, negative = disabled)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent engine computations (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "max requests waiting for a computation slot before 429 (0 = 4×max-inflight)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query computation deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on request-supplied timeout_ms")
	workers := flag.Int("workers", 0, "default engine workers per query: 1 = serial, N > 1 = parallel search, 0 = auto")
	warm := flag.String("warm", "", "comma-separated degree thresholds to prebuild before serving (e.g. 3,4,5)")
	snapshotDir := flag.String("snapshot-dir", "", "directory for per-graph .mlgs artifact snapshots (warm-start + persistence)")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "period of background snapshot saves (0 = only on shutdown)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight queries to drain")
	mutable := flag.String("mutable", "", "comma-separated graph names accepting POST /v1/graphs/{id}/edges, or 'all'")
	maxUpdateBytes := flag.Int64("max-update-bytes", 0, "max body size of an edge-update or search-batch request before 413 (0 = default 4 MiB)")
	maxBatch := flag.Int("max-batch", 0, "max queries in one POST /v1/search/batch before 413 (0 = default 64)")
	useMmap := flag.Bool("mmap", false, "open .mlgb graphs as zero-copy memory mappings instead of heap decoding")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: dccs-serve [flags] <graph.mlg|graph.mlgb | name=path> ...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	specs, mappings, err := loadGraphs(flag.Args(), *useMmap)
	if err != nil {
		log.Fatalf("dccs-serve: %v", err)
	}
	if err := markMutable(specs, *mutable); err != nil {
		log.Fatalf("dccs-serve: -mutable: %v", err)
	}

	srv, err := server.New(server.Config{
		MaxInflight:      *maxInflight,
		QueueDepth:       *queueDepth,
		CacheEntries:     *cache,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		SnapshotDir:      *snapshotDir,
		SnapshotInterval: *snapshotInterval,
		MaxUpdateBytes:   *maxUpdateBytes,
		MaxBatchQueries:  *maxBatch,
		Engine:           dccs.EngineConfig{Workers: *workers},
		Logf:             log.Printf,
	}, specs...)
	if err != nil {
		log.Fatalf("dccs-serve: %v", err)
	}

	if *warm != "" {
		ds, err := parseWarm(*warm)
		if err != nil {
			log.Fatalf("dccs-serve: -warm: %v", err)
		}
		start := time.Now()
		for _, spec := range specs {
			eng, _ := srv.Engine(spec.Name)
			if err := eng.Warm(ds...); err != nil {
				log.Fatalf("dccs-serve: warm %s: %v", spec.Name, err)
			}
		}
		log.Printf("dccs-serve: warmed d=%v for %d graph(s) in %v", ds, len(specs), time.Since(start).Round(time.Millisecond))
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("dccs-serve: serving %d graph(s) on %s", len(specs), *addr)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("dccs-serve: %v: draining (signal again to exit now)", sig)
		go func() {
			<-sigc
			log.Fatal("dccs-serve: second signal, exiting immediately")
		}()
	case err := <-errc:
		log.Fatalf("dccs-serve: listener: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Shutdown's error carries both drain failures and snapshot-persist
	// failures from the final save — surface it, don't swallow it: an
	// operator relying on warm restarts needs to know the snapshot is
	// stale before the next deploy, not after.
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("dccs-serve: shutdown: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("dccs-serve: http shutdown: %v", err)
	}
	// Unmap only after every handler has finished: queries alias the
	// mapped CSR arrays while running.
	for _, mg := range mappings {
		if err := mg.Close(); err != nil {
			log.Printf("dccs-serve: unmap: %v", err)
		}
	}
	log.Print("dccs-serve: bye")
}

// loadGraphs resolves the positional arguments: either bare paths
// (served under the file's base name without extension) or name=path
// pairs. With useMmap set, binary .mlgb files are opened as zero-copy
// memory mappings and verified (text graphs fall back to the heap load
// with a log note); the returned handles must stay open until the server
// has drained and are closed by main after shutdown.
func loadGraphs(args []string, useMmap bool) ([]server.GraphSpec, []*dccs.MappedGraph, error) {
	specs := make([]server.GraphSpec, 0, len(args))
	var mappings []*dccs.MappedGraph
	for _, arg := range args {
		name, path, ok := strings.Cut(arg, "=")
		if !ok {
			path = arg
			base := filepath.Base(path)
			name = strings.TrimSuffix(base, filepath.Ext(base))
		}
		start := time.Now()
		spec := server.GraphSpec{Name: name}
		if useMmap {
			mg, err := dccs.OpenMappedGraphFile(path)
			switch {
			case err == nil:
				// The mapped open checks only the offsets; a neighbor id
				// out of range would panic the first search reading it.
				if err := mg.Verify(); err != nil {
					mg.Close()
					return nil, nil, fmt.Errorf("%s: %w", path, err)
				}
				mappings = append(mappings, mg)
				spec.Graph = mg.Graph
				spec.Mmap = mg.ZeroCopy()
				if !mg.ZeroCopy() {
					log.Printf("dccs-serve: %s: mmap unsupported on this platform, loaded a private copy", name)
				}
			case errors.Is(err, dccs.ErrNotBinaryGraph):
				log.Printf("dccs-serve: %s: not a binary graph, -mmap falling back to heap load", name)
			default:
				return nil, nil, err
			}
		}
		if spec.Graph == nil {
			g, err := dccs.ReadGraphFile(path)
			if err != nil {
				return nil, nil, err
			}
			spec.Graph = g
		}
		st := spec.Graph.Stats()
		mode := "loaded"
		if spec.Mmap {
			mode = "mapped"
		}
		log.Printf("dccs-serve: %s %s from %s (n=%d l=%d Σ|E|=%d) in %v",
			mode, name, path, st.N, st.Layers, st.TotalEdges, time.Since(start).Round(time.Millisecond))
		specs = append(specs, spec)
	}
	return specs, mappings, nil
}

// markMutable flags the named graphs (or all of them) as accepting edge
// updates; naming an unserved graph is a configuration error.
func markMutable(specs []server.GraphSpec, list string) error {
	if list == "" {
		return nil
	}
	if list == "all" {
		for i := range specs {
			if specs[i].Mmap {
				return fmt.Errorf("graph %q is memory-mapped; mapped graphs cannot be mutable (updates would rebuild the CSR arrays on the heap, forfeiting zero-copy while pinning the file)", specs[i].Name)
			}
			specs[i].Mutable = true
		}
		return nil
	}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for i := range specs {
			if specs[i].Name == name {
				if specs[i].Mmap {
					return fmt.Errorf("graph %q is memory-mapped; mapped graphs cannot be mutable (updates would rebuild the CSR arrays on the heap, forfeiting zero-copy while pinning the file)", name)
				}
				specs[i].Mutable = true
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("graph %q is not being served", name)
		}
	}
	return nil
}

// parseWarm parses the -warm list of degree thresholds.
func parseWarm(list string) ([]int, error) {
	var ds []int
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		d, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	if len(ds) == 0 {
		return nil, errors.New("empty threshold list")
	}
	return ds, nil
}

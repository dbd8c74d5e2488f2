package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	dccs "repro"
	"repro/internal/server"
)

// startRec is one cold-start op.
type startRec struct {
	restart     bool
	start, done time.Time
	answer      string
	stats       dccs.Stats
	builds      int64
}

// coldStart: storage decode, per-layer coreness and the hierarchy build,
// which the served workloads pay once in set-up, here dominate every op.
// Closed loop, 1 client, alternating two ways to answer the dccs CLI's
// query from files: cold_run decodes the .mlgb, builds the artifacts and
// searches; restart maps the .mlgb, restores a .mlgs snapshot and
// searches. Each op starts from a collected heap, like a fresh process,
// and the collection is not timed.
func coldStart(r *runner) (*outcome, error) {
	o := newOutcome(r)
	t := time.Now()
	g := serveGraph(r.seed, r.size.serveN)
	r.logf("gen_s %.3f: n=%d l=%d edges=%d", time.Since(t).Seconds(), g.N(), g.L(), g.MTotal())
	if err := os.MkdirAll(r.workDir, 0o755); err != nil {
		return nil, err
	}
	graphPath := filepath.Join(r.workDir, "serve.mlgb")
	snapPath := filepath.Join(r.workDir, "serve.mlgs")
	// Set-up is what a deploy job does: write the graph file, build the
	// artifacts the query needs, and save them as a snapshot. Its heap is
	// that of the engine holding the graph and those artifacts.
	type deployed struct {
		eng    *dccs.Engine
		answer string
	}
	dep, setupS, err := setUp(r, func() (deployed, error) {
		if err := g.WriteBinaryFile(graphPath); err != nil {
			return deployed{}, err
		}
		eng, err := dccs.NewEngine(g, dccs.EngineConfig{})
		if err != nil {
			return deployed{}, err
		}
		res, err := eng.Search(context.Background(), coldStartQuery)
		if err != nil {
			return deployed{}, err
		}
		return deployed{eng, resultAnswer(res)}, eng.SaveSnapshot(snapPath)
	}, func(deployed) {})
	if err != nil {
		return nil, err
	}
	heap := liveHeapMiB()
	runtime.KeepAlive(dep.eng)
	want := dep.answer
	var recs []startRec
	var buf bytes.Buffer
	start := time.Now()
	for i := 0; time.Since(start) < r.window; i++ {
		runtime.GC()
		var rc startRec
		if i%2 == 0 {
			rc, err = r.coldRun(i, graphPath, &buf)
		} else {
			rc, err = r.restart(i, graphPath, snapPath, &buf)
		}
		o.attempted++
		if err != nil {
			o.failed++
			r.logf("op %d: %v", i, err)
			continue
		}
		if rc.answer != want {
			o.fail("op %d (restart %v): answer differs from the set-up engine's", i, rc.restart)
		}
		recs = append(recs, rc)
	}
	if len(o.wrong) > 0 {
		return o, nil
	}

	var main, side []float64
	last := start
	var builds int64
	var stats []server.SearchStats
	for _, rc := range recs {
		builds += rc.builds
		if rc.restart {
			side = append(side, ms(rc.done.Sub(rc.start)))
		} else {
			main = append(main, ms(rc.done.Sub(rc.start)))
			if len(stats) < r.size.prefix {
				stats = append(stats, server.SearchStats{
					TreeNodes: rc.stats.TreeNodes, Candidates: rc.stats.Candidates, DCCCalls: rc.stats.DCCCalls,
					Updates: rc.stats.Updates, Pruned: rc.stats.Pruned, PreprocessRemoved: rc.stats.PreprocessRemoved,
				})
			}
		}
		last = rc.done
	}
	if err := r.endToEnd(o, setupS, heap, main, side, float64(len(main))/last.Sub(start).Seconds()); err != nil {
		return nil, err
	}
	if r.trace == nil {
		return o, nil
	}

	m := o.metrics
	spans := r.trace.spans
	m["loadgen.main_p50_ms"] = m["main_p50_ms"]
	m["dccs.artifact_builds"] = float64(builds)
	coreCounts(m, stats)
	for metric, name := range map[string]string{
		"multilayer.decode_p50_ms":     "multilayer.decode",
		"kcore.coreness_p50_ms":        "kcore.coreness",
		"core.first_search_p50_ms":     "core.first_search",
		"cli.encode_p50_ms":            "cli.encode",
		"multilayer.mmap_open_p50_ms":  "multilayer.mmap_open",
		"core.snapshot_restore_p50_ms": "core.snapshot_restore",
	} {
		m[metric] = median(durations(spans, name))
	}
	// The first search of a cold engine builds the d=4 hierarchy; the
	// search after a restore finds it restored. Both run the same query
	// on the same graph, so the difference is the build.
	m["core.hierarchy_p50_ms"] = max(0, m["core.first_search_p50_ms"]-median(durations(spans, "core.search")))
	for metric, path := range map[string]string{"multilayer.file_bytes": graphPath, "core.snapshot_bytes": snapPath} {
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		m[metric] = float64(fi.Size())
	}
	pg, err := dccs.ReadGraphFile(graphPath)
	if err != nil {
		return nil, err
	}
	eng, err := dccs.NewEngine(pg, dccs.EngineConfig{})
	if err != nil {
		return nil, err
	}
	m["dccs.cachekey_p50_us"] = cacheKeyUS(eng.View(), []dccs.Query{coldStartQuery})
	m["dccs.fingerprint_p50_ms"] = fingerprintMS(pg)
	return o, nil
}

// coldRun answers the query as the dccs CLI does: decode the graph file,
// build an engine, search, encode the result as indented JSON. The
// per-layer coreness is built by CanonicalQuery, a call of its own so
// that it can be timed apart; Search would build it first otherwise. The
// hierarchy is built inside Search, by a per-d path no public call
// exposes alone.
func (r *runner) coldRun(i int, graphPath string, buf *bytes.Buffer) (startRec, error) {
	rc := startRec{start: time.Now()}
	t := r.trace
	s := rc.start
	g, err := dccs.ReadGraphFile(graphPath)
	if err != nil {
		return rc, err
	}
	t.add(i, "multilayer.decode", "cold_run", s, time.Since(s))
	eng, err := dccs.NewEngine(g, dccs.EngineConfig{})
	if err != nil {
		return rc, err
	}
	s = time.Now()
	eng.CanonicalQuery(coldStartQuery)
	t.add(i, "kcore.coreness", "cold_run", s, time.Since(s))
	s = time.Now()
	res, err := eng.Search(context.Background(), coldStartQuery)
	if err != nil {
		return rc, err
	}
	t.add(i, "core.first_search", "cold_run", s, time.Since(s))
	if err := encodeResult(t, i, "cold_run", buf, res); err != nil {
		return rc, err
	}
	rc.done = time.Now()
	t.add(i, "cold_run", "", rc.start, rc.done.Sub(rc.start))
	em := eng.Metrics()
	rc.builds = em.CorenessBuilds + em.HierarchyBuilds
	rc.answer, rc.stats = resultAnswer(res), res.Stats
	return rc, nil
}

// restart answers the same query as a restarted server does: map the
// graph file, restore the snapshot, search, encode, unmap.
func (r *runner) restart(i int, graphPath, snapPath string, buf *bytes.Buffer) (startRec, error) {
	rc := startRec{restart: true, start: time.Now()}
	t := r.trace
	s := rc.start
	mg, err := dccs.OpenMappedGraphFile(graphPath)
	if err != nil {
		return rc, err
	}
	defer mg.Close()
	t.add(i, "multilayer.mmap_open", "restart", s, time.Since(s))
	eng, err := dccs.NewEngine(mg.Graph, dccs.EngineConfig{})
	if err != nil {
		return rc, err
	}
	s = time.Now()
	if err := eng.LoadSnapshot(snapPath); err != nil {
		return rc, err
	}
	t.add(i, "core.snapshot_restore", "restart", s, time.Since(s))
	s = time.Now()
	res, err := eng.Search(context.Background(), coldStartQuery)
	if err != nil {
		return rc, err
	}
	t.add(i, "core.search", "restart", s, time.Since(s))
	if err := encodeResult(t, i, "restart", buf, res); err != nil {
		return rc, err
	}
	if err := mg.Close(); err != nil {
		return rc, fmt.Errorf("unmap: %w", err)
	}
	rc.done = time.Now()
	t.add(i, "restart", "", rc.start, rc.done.Sub(rc.start))
	em := eng.Metrics()
	rc.builds = em.CorenessBuilds + em.HierarchyBuilds
	rc.answer, rc.stats = resultAnswer(res), res.Stats
	return rc, nil
}

// encodeResult renders res as the dccs CLI's -json output does.
func encodeResult(t *tracer, i int, parent string, buf *bytes.Buffer, res *dccs.Result) error {
	s := time.Now()
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	t.add(i, "cli.encode", parent, s, time.Since(s))
	return nil
}

package main

import (
	"context"
	"fmt"
	"time"

	dccs "repro"
)

func newOutcome(r *runner) *outcome {
	o := &outcome{metrics: map[string]float64{}}
	if r.trace != nil {
		zeroLayers(o)
		o.metrics["loadgen.probe_ms"] = cpuProbe()
	}
	return o
}

// hotCache: every query of the window is already cached, so the engine
// does no work and latency is the server's request path: decode, cache
// key, cache lookup, encode, and batch partitioning. Open loop over 2
// connections: 400 searches/s and 10 batches of 8 per second, Zipf(1.1)
// over a 64-query universe prefilled into the cache.
func hotCache(r *runner) (*outcome, error) {
	o := newOutcome(r)
	t := time.Now()
	g := serveGraph(r.seed, r.size.serveN)
	ops := hotOps(r.seed, r.window)
	r.logf("gen_s %.3f: n=%d l=%d edges=%d, %d ops", time.Since(t).Seconds(), g.N(), g.L(), g.MTotal(), len(ops))
	svc, setupS, err := setUp(r, func() (*service, error) { return startService(g, false, 3, 4) }, (*service).close)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	c := newClient()
	defer c.CloseIdleConnections()

	// The engine answers each universe query once, filling the cache.
	u := hotUniverse()
	t = time.Now()
	prefill, err := warmUp(c, svc.ts.URL, searchOps(u), "engine")
	if err != nil {
		return nil, err
	}
	r.logf("prefill_s %.3f", time.Since(t).Seconds())
	want := make([]string, len(u))
	for i := range prefill {
		want[i] = prefill[i].items[0].answer()
	}

	heap := liveHeapMiB()
	builds := svc.builds()
	start := time.Now()
	recs := drive(r.window, 2, dueOf(ops, r.window), func(i int, due time.Time) rec {
		rc := record(send(c, svc.ts.URL, ops[i], i, due), ops[i])
		checkItems(&rc, "cache")
		for k := range rc.items {
			it := &rc.items[k]
			if rc.bad == "" && it.answer() != want[it.num] {
				rc.bad = fmt.Sprintf("op %d: query %d: cached answer differs from its prefill", i, it.num)
			}
			it.Cores = nil
		}
		return rc
	})
	builds = svc.builds() - builds

	// The prefill answers must equal a separate engine's.
	ref, err := dccs.NewEngine(g, dccs.EngineConfig{})
	if err != nil {
		return nil, err
	}
	differs := make([]bool, len(u))
	err = parallel(len(u), 2, func(i int) error {
		res, err := ref.Search(context.Background(), u[i])
		differs[i] = err == nil && resultAnswer(res) != want[i]
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, d := range differs {
		if d {
			o.fail("query %d: served answer differs from a separate engine's", i)
		}
	}
	return o, r.measureServed(o, setupS, heap, start, recs, svc, builds, u)
}

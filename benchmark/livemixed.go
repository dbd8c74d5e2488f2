package main

import (
	"context"
	"sync"
	"time"

	dccs "repro"
)

// liveMixed: writes next to reads on a mutable graph. Every update batch
// swaps in a new engine generation, which retires the cached answers and
// makes the next cache key hash the new graph. Open loop: one connection
// sends 4 update batches/s of 100 edges on one layer, the other 16
// searches/s from an 8-query universe, with hierarchies d ∈ {2..5} warm.
func liveMixed(r *runner) (*outcome, error) {
	o := newOutcome(r)
	t := time.Now()
	g := liveGraph(r.seed, r.size.liveN)
	searches, updates := liveOps(r.seed, g, r.window)
	r.logf("gen_s %.3f: n=%d l=%d edges=%d, %d searches, %d updates", time.Since(t).Seconds(), g.N(), g.L(), g.MTotal(), len(searches), len(updates))
	svc, setupS, err := setUp(r, func() (*service, error) { return startService(g, true, 2, 3, 4, 5) }, (*service).close)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	c := newClient()
	defer c.CloseIdleConnections()

	u := liveUniverse()
	if _, err := warmUp(c, svc.ts.URL, searchOps(u), "engine"); err != nil {
		return nil, err
	}

	heap := liveHeapMiB()
	builds := svc.builds()
	start := time.Now()
	// One stream per connection; update ops are numbered after the
	// searches so that every op has its own trace id.
	stream := func(ops []op, first int, out *[]rec, wg *sync.WaitGroup) {
		defer wg.Done()
		*out = drive(r.window, 1, dueOf(ops, r.window), func(i int, due time.Time) rec {
			rc := record(send(c, svc.ts.URL, ops[i], first+i, due), ops[i])
			checkItems(&rc, "engine", "cache", "coalesced")
			for k := range rc.items {
				rc.items[k].Cores = nil
			}
			return rc
		})
	}
	var sr, ur []rec
	var wg sync.WaitGroup
	wg.Add(2)
	go stream(searches, 0, &sr, &wg)
	go stream(updates, len(searches), &ur, &wg)
	wg.Wait()
	builds = svc.builds() - builds

	// Every batch must take full effect and advance the version by one.
	applied := 0
	for _, rc := range ur {
		if !rc.ok() || rc.bad != "" {
			continue
		}
		applied++
		up := rc.update
		if up.Inserted+up.Deleted != liveBatchEdges || up.NoOps != 0 {
			o.fail("update op %d: inserted %d + deleted %d of %d edges", rc.op, up.Inserted, up.Deleted, liveBatchEdges)
		}
		if up.Version != uint64(applied) {
			o.fail("update op %d: version %d, want %d", rc.op, up.Version, applied)
		}
	}
	if v := svc.eng.Version(); v != uint64(applied) {
		o.fail("final version %d after %d batches", v, applied)
	}
	// The mutated engine must answer like a cold engine on its final graph.
	cold, err := dccs.NewEngine(svc.eng.Graph(), dccs.EngineConfig{})
	if err != nil {
		return nil, err
	}
	for i, q := range u {
		got, err := svc.eng.Search(context.Background(), q)
		if err != nil {
			return nil, err
		}
		want, err := cold.Search(context.Background(), q)
		if err != nil {
			return nil, err
		}
		if resultAnswer(got) != resultAnswer(want) {
			o.fail("query %d: mutated engine differs from a cold engine on the final graph", i)
		}
	}
	return o, r.measureServed(o, setupS, heap, start, append(sr, ur...), svc, builds, u)
}

package main

import (
	"context"
	"time"

	dccs "repro"
)

// coldChecked is how many leading query items of cold-search are compared
// with a reference engine.
const coldChecked = 16

// coldSearch: every query is new, so the cache is bypassed and the
// engine's search, refine and top-k do nearly all the work, while singles
// and weighted batches contend for admission. Closed loop, 2 clients, over
// a fixed op stream with hierarchies d ∈ {3,4} warm.
func coldSearch(r *runner) (*outcome, error) {
	o := newOutcome(r)
	t := time.Now()
	g := serveGraph(r.seed, r.size.serveN)
	r.logf("gen_s %.3f: n=%d l=%d edges=%d", time.Since(t).Seconds(), g.N(), g.L(), g.MTotal())
	svc, setupS, err := setUp(r, func() (*service, error) { return startService(g, false, 3, 4) }, (*service).close)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	c := newClient()
	defer c.CloseIdleConnections()

	// Open both connections with four ops from another seed's stream,
	// which share no query with the measured one.
	var warm []op
	for i := 0; i < 4; i++ {
		warm = append(warm, coldOp(^r.seed, g.L(), i))
	}
	if _, err := warmUp(c, svc.ts.URL, warm, "engine"); err != nil {
		return nil, err
	}

	heap := liveHeapMiB()
	builds := svc.builds()
	start := time.Now()
	recs := drive(r.window, 2, nil, func(i int, due time.Time) rec {
		o := coldOp(r.seed, g.L(), i)
		rc := record(send(c, svc.ts.URL, o, i, due), o)
		checkItems(&rc, "engine")
		for k := range rc.items {
			if rc.items[k].num >= coldChecked {
				rc.items[k].Cores = nil
			}
		}
		return rc
	})
	builds = svc.builds() - builds

	// The leading items must equal a reference engine's answers, and one
	// answer of each shape must be a valid DCCS result.
	first := map[int]*item{}
	for i := range recs {
		for k := range recs[i].items {
			if it := &recs[i].items[k]; it.num < coldChecked && recs[i].bad == "" {
				first[it.num] = it
			}
		}
	}
	ref, err := dccs.NewEngine(g, dccs.EngineConfig{})
	if err != nil {
		return nil, err
	}
	for j := 0; j < coldChecked; j++ {
		it := first[j]
		if it == nil {
			o.fail("query item %d was not answered within the window", j)
			continue
		}
		q := coldItem(r.seed, g.L(), j)
		res, err := ref.Search(context.Background(), q)
		if err != nil {
			return nil, err
		}
		if resultAnswer(res) != it.answer() {
			o.fail("query item %d: served answer differs from a reference engine's", j)
		}
		if j < 2 { // item 0 is bottom-up, item 1 top-down
			got, err := replyResult(&it.reply)
			if err == nil {
				err = dccs.Validate(g, dccs.Options{D: q.D, S: q.S, K: q.K, Seed: q.Seed}, got)
			}
			if err != nil {
				o.fail("query item %d (%s): %v", j, it.Stats.Algorithm, err)
			}
		}
	}
	return o, r.measureServed(o, setupS, heap, start, recs, svc, builds, []dccs.Query{coldItem(r.seed, g.L(), 0), coldItem(r.seed, g.L(), 1)})
}

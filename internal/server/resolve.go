package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	dccs "repro"
	"repro/internal/pool"
)

// maxK bounds a query's result count k. The top-k bookkeeping allocates
// n·⌈k/64⌉ mask words and runs k seeding passes before the search
// starts, so an unbounded k from the wire could exhaust the heap; 1024
// is two orders of magnitude above any k the paper's experiments use.
const maxK = 1024

// validAlgorithms gates request algorithm strings before they reach the
// engine, so typos come back as 400s, not engine errors.
var validAlgorithms = map[dccs.Algorithm]bool{
	"":            true,
	dccs.AlgoAuto: true, dccs.AlgoGreedy: true,
	dccs.AlgoBottomUp: true, dccs.AlgoTopDown: true, dccs.AlgoExact: true,
}

// validate checks one query's parameters against the target graph,
// mirroring the engine's own validation so failures map to 400, and
// bounds what the engine would otherwise size its work by.
func validate(q *BatchQuery, g *dccs.Graph) error {
	if q.D < 1 {
		return fmt.Errorf("degree threshold d = %d, want ≥ 1", q.D)
	}
	if q.S < 1 || q.S > g.L() {
		return fmt.Errorf("support threshold s = %d, want 1 ≤ s ≤ %d", q.S, g.L())
	}
	if q.K < 1 || q.K > maxK {
		return fmt.Errorf("result count k = %d, want 1 ≤ k ≤ %d", q.K, maxK)
	}
	if !validAlgorithms[dccs.Algorithm(q.Algorithm)] {
		return fmt.Errorf("unknown algorithm %q (want auto, greedy, bu, td, exact)", q.Algorithm)
	}
	if q.MaxTreeNodes < 0 {
		return fmt.Errorf("max_tree_nodes = %d, want ≥ 0", q.MaxTreeNodes)
	}
	if q.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms = %d, want ≥ 0", q.TimeoutMS)
	}
	return nil
}

// effectiveTimeout resolves a request's timeout_ms into its computation
// deadline: the server default when unset, capped at MaxTimeout. The cap
// applies in milliseconds, before the conversion to a Duration could
// overflow.
func (s *Server) effectiveTimeout(ms int64) time.Duration {
	t := s.cfg.DefaultTimeout
	if ms > 0 {
		t = s.cfg.MaxTimeout
		if ms < t.Milliseconds() {
			t = time.Duration(ms) * time.Millisecond
		}
	}
	return min(t, s.cfg.MaxTimeout)
}

// task is one query in the resolve stage: the endpoint fills in the
// query, resolve the outcome.
type task struct {
	q       dccs.Query
	noCache bool
	limit   time.Duration // the task's deadline, ≤ budget; both count from resolve's start

	res     *dccs.Result
	err     error
	source  string        // "engine", "cache" or "coalesced"
	elapsed time.Duration // engine time of an engine-sourced task

	key, flightKey string
	call           *flightCall
}

// newTask turns a validated query into a task whose deadline is the
// request's budget intersected with the query's own timeout_ms.
func (s *Server) newTask(q *BatchQuery, budget time.Duration) task {
	t := task{
		q: dccs.Query{
			D: q.D, S: q.S, K: q.K, Seed: q.Seed,
			Algorithm:    dccs.Algorithm(q.Algorithm),
			MaxTreeNodes: q.MaxTreeNodes,
			Workers:      q.Workers,
		},
		noCache: q.NoCache,
		limit:   budget,
	}
	if q.TimeoutMS > 0 {
		t.limit = min(budget, s.effectiveTimeout(q.TimeoutMS))
	}
	return t
}

// cached answers t through lookup, a result-cache lookup, unless t asked
// to skip the cache.
func (t *task) cached(lookup func(key string) *dccs.Result) bool {
	if t.noCache {
		return false
	}
	t.res = lookup(t.key)
	if t.res == nil {
		return false
	}
	t.source = "cache"
	return true
}

// resolve answers every task against one pinned view — a single search
// is a batch of one. Per task: the cache lookup; else join the flight
// keyed by the cache key plus the task's deadline, and a leader
// rechecks the cache. The leaders left then run together (see run).
// Followers wait — under wait, the client's context — only after the
// request's own leaders have finished, so a request never holds
// admission tokens while it waits on another: that is what makes
// coalescing across requests deadlock-free (DESIGN.md § Why coalescing
// is safe).
//
// budget bounds the request's computation from now, admission wait
// included. resolve returns the warmed thresholds, or the admission
// error that fails the whole request; every other outcome is per task.
func (s *Server) resolve(wait context.Context, view dccs.View, budget time.Duration, tasks []*task) ([]int, error) {
	start := time.Now()
	var led, leaders []*task
	// Every flight this request opened is finished by the time it
	// returns, even when a panic unwinds through here: the followers then
	// fail instead of waiting forever.
	defer func() {
		for _, t := range led {
			s.flight.finish(t.flightKey, t.call, nil, errLeaderFailed)
		}
	}()
	for _, t := range tasks {
		t.key = view.CacheKey(t.q)
		if t.cached(s.cache.Get) {
			continue
		}
		// A deadline can truncate the shared result, so only tasks with
		// equal deadlines may share a flight: otherwise a 1 ms leader could
		// hand its near-empty partial to a follower that asked for a full
		// minute (see DESIGN.md).
		t.flightKey = fmt.Sprintf("%s|t%d", t.key, t.limit.Milliseconds())
		var lead bool
		if t.call, lead = s.flight.join(t.flightKey); !lead {
			continue
		}
		led = append(led, t)
		// A leader that just finished may have filled the cache between
		// the lookup and the join; don't recompute what it stored. The
		// first lookup counted this task's miss, so the recheck counts
		// nothing.
		if t.cached(s.cache.Recheck) {
			s.flight.finish(t.flightKey, t.call, t.res, nil)
			continue
		}
		leaders = append(leaders, t)
	}
	var warmed []int
	if len(leaders) > 0 {
		var err error
		if warmed, err = s.run(view, start, budget, leaders); err != nil {
			return nil, err
		}
	}
	for _, t := range tasks {
		if t.source == "" {
			t.res, t.err = t.call.wait(wait)
			t.source = "coalesced"
		}
	}
	return warmed, nil
}

// run computes the leaders under one admission of min(leaders,
// MaxInflight) tokens, held until the last of them has finished its
// flight: one warm pass over their distinct degree thresholds, then the
// searches on that many workers, each putting its result in the cache
// before finishing its flight. It returns the warmed thresholds, or the
// admission error, which it also hands the leaders' followers.
func (s *Server) run(view dccs.View, start time.Time, budget time.Duration, leaders []*task) ([]int, error) {
	// Everything runs under the computation context — server lifetime
	// plus the budget, detached from the client — so a disconnecting
	// client cannot poison the followers behind its leaders.
	ctx, cancel := context.WithDeadline(s.queryCtx, start.Add(budget))
	defer cancel()
	weight := min(len(leaders), s.cfg.MaxInflight)
	if err := s.admit(ctx, weight); err != nil {
		for _, t := range leaders {
			s.flight.finish(t.flightKey, t.call, nil, err)
		}
		return nil, err
	}
	defer s.admission.release(weight)

	var warmed []int
	seen := make(map[int]bool, len(leaders))
	for _, t := range leaders {
		if d := view.CanonicalQuery(t.q).D; !seen[d] {
			seen[d] = true
			warmed = append(warmed, d)
		}
	}
	sort.Ints(warmed)
	// A warm cut short by ctx keeps the hierarchies it completed; the
	// searches then return truncated partials under the same context.
	_ = view.Warm(ctx, warmed...)
	pool.Run(weight, len(leaders), func(i int) {
		t := leaders[i]
		tctx := ctx
		if t.limit < budget {
			var tcancel context.CancelFunc
			tctx, tcancel = context.WithDeadline(ctx, start.Add(t.limit))
			defer tcancel()
		}
		t0 := time.Now()
		t.res, t.err = view.Search(tctx, t.q)
		t.elapsed = time.Since(t0)
		t.source = "engine"
		// Deadline- or drain-truncated results depend on wall-clock
		// timing, not on the query; caching one would freeze an
		// arbitrarily small partial answer for future clients.
		if t.err == nil && !t.res.Stats.Interrupted {
			s.cache.Put(t.key, t.res)
		}
		s.flight.finish(t.flightKey, t.call, t.res, t.err)
	})
	return warmed, nil
}

// errDraining signals shutdown rejection; the handler maps it to 503.
var errDraining = errors.New("server: shutting down")

// admit takes n admission tokens under ctx — the computation context,
// whose Done covers both shutdown and the request's deadline — and
// accounts a refusal by its reason.
func (s *Server) admit(ctx context.Context, n int) error {
	err := s.admission.acquire(ctx, n)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, errBusy):
		s.metrics.rejectedQueueFull.Add(1)
		return err
	case s.queryCtx.Err() != nil:
		s.metrics.rejectedDraining.Add(1)
		return errDraining
	default:
		s.metrics.rejectedWaitTimeout.Add(1)
		return fmt.Errorf("request expired while waiting for admission: %w", err)
	}
}

// writeFailure answers a request whose computation failed: a full queue
// is 429 with Retry-After, a drain or an expired wait 503, and a leader
// that ended without an answer 500. Anything else is the engine
// rejecting the query or the update itself, which is the client's 400.
func (s *Server) writeFailure(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
	case errors.Is(err, errDraining), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		code = http.StatusServiceUnavailable
	case errors.Is(err, errLeaderFailed):
		code = http.StatusInternalServerError
	}
	s.writeError(w, code, "%v", err)
}

// wireResult renders a result's cores and stats in wire form, for
// single responses and batch items alike.
func wireResult(res *dccs.Result) ([]SearchCC, SearchStats) {
	cores := make([]SearchCC, len(res.Cores))
	for i, c := range res.Cores {
		cores[i] = SearchCC{Layers: c.Layers, Vertices: c.Vertices}
	}
	return cores, SearchStats{
		Algorithm:         res.Stats.Algorithm,
		PreprocessRemoved: res.Stats.PreprocessRemoved,
		TreeNodes:         res.Stats.TreeNodes,
		Candidates:        res.Stats.Candidates,
		DCCCalls:          res.Stats.DCCCalls,
		Updates:           res.Stats.Updates,
		Pruned:            res.Stats.Pruned,
		EngineSecs:        res.Stats.Elapsed.Seconds(),
	}
}

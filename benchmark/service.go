package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	dccs "repro"
	"repro/internal/server"
)

const graphName = "bench"

// service is one in-process dccs-serve instance with its default Config,
// behind a real loopback HTTP listener.
type service struct {
	srv *server.Server
	eng *dccs.Engine
	ts  *httptest.Server
}

// startService serves g and warms the hierarchies of ds before it
// returns, as a deploy would before taking traffic.
func startService(g *dccs.Graph, mutable bool, ds ...int) (*service, error) {
	srv, err := server.New(server.Config{}, server.GraphSpec{Name: graphName, Graph: g, Mutable: mutable})
	if err != nil {
		return nil, err
	}
	eng, _ := srv.Engine(graphName)
	if err := eng.Warm(ds...); err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	return &service{srv: srv, eng: eng, ts: httptest.NewServer(srv.Handler())}, nil
}

func (s *service) close() {
	s.ts.Close()
	// Without a snapshot directory Shutdown only drains, and nothing is in
	// flight once the load generator has returned.
	_ = s.srv.Shutdown(context.Background())
}

// builds is the engine's artifact-build count so far.
func (s *service) builds() int64 {
	m := s.eng.Metrics()
	return m.CorenessBuilds + m.HierarchyBuilds
}

// newClient returns the load generator's client: at most 2 connections,
// one per vCPU of the machine the workloads were sized on.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

// sample is one op as the load generator saw it.
type sample struct {
	op     int
	side   bool
	due    time.Time // when the op was due: the schedule in an open loop, the send in a closed one
	sent   time.Time
	done   time.Time // when the whole response body had been read
	status int
	err    error
	body   []byte
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// latency runs from the due time, so a stalled generator or server shows
// up in every op that waited behind it.
func (s *sample) latency() float64 { return ms(s.done.Sub(s.due)) }

func (s *sample) rtt() time.Duration { return s.done.Sub(s.sent) }

func (s *sample) lag() float64 { return ms(s.sent.Sub(s.due)) }

func (s *sample) refused() bool {
	return s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable
}

// send posts o and reads the whole response.
func send(c *http.Client, base string, o op, i int, due time.Time) sample {
	s := sample{op: i, side: o.side, due: due, sent: time.Now()}
	resp, err := c.Post(base+o.path, "application/json", bytes.NewReader(o.body))
	if err == nil {
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	s.done = time.Now()
	s.err = err
	return s
}

// drive runs ops 0, 1, 2, ... on the given number of workers until the
// window closes, and returns what do returned for each, in op order. With
// a due function the loop is open: op i is sent when due, or at once by a
// worker that frees up late, and ops due after the window are not sent.
// Without one it is closed: each worker sends its next op as soon as its
// last one returns. do gets the time the op was due.
func drive[S any](window time.Duration, workers int, due func(i int) time.Duration, do func(i int, due time.Time) S) []S {
	type result struct {
		i int
		s S
	}
	start := time.Now()
	end := start.Add(window)
	var next atomic.Int64
	per := make([][]result, workers)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if due == nil && !time.Now().Before(end) {
					return
				}
				i := int(next.Add(1) - 1)
				at := time.Now()
				if due != nil {
					if at = start.Add(due(i)); !at.Before(end) {
						return
					}
					time.Sleep(time.Until(at))
				}
				per[w] = append(per[w], result{i, do(i, at)})
			}
		}(w)
	}
	wg.Wait()
	var all []result
	for _, p := range per {
		all = append(all, p...)
	}
	slices.SortFunc(all, func(a, b result) int { return a.i - b.i })
	out := make([]S, len(all))
	for k, r := range all {
		out[k] = r.s
	}
	return out
}

// dueOf is the due function of an open-loop stream.
func dueOf(ops []op, window time.Duration) func(int) time.Duration {
	return func(i int) time.Duration {
		if i < len(ops) {
			return ops[i].due
		}
		return window
	}
}

// reply is a single search response, or one item of a batch response.
// Cores stay raw: answers compare as the bytes the server sent.
type reply struct {
	Error     string             `json:"error"`
	Cores     json.RawMessage    `json:"cores"`
	CoverSize int                `json:"cover_size"`
	Truncated bool               `json:"truncated"`
	Source    string             `json:"source"`
	ElapsedMS float64            `json:"elapsed_ms"`
	Stats     server.SearchStats `json:"stats"`
}

// answer is the result-bearing part of a reply. A batch item omits empty
// cores; a single search sends [].
func (r *reply) answer() string {
	cores := r.Cores
	if len(cores) == 0 || string(cores) == "null" {
		cores = json.RawMessage("[]")
	}
	return fmt.Sprintf("%s|%d", cores, r.CoverSize)
}

type batchReply struct {
	Items      []reply `json:"items"`
	CacheHits  int     `json:"cache_hits"`
	Coalesced  int     `json:"coalesced"`
	EngineRuns int     `json:"engine_runs"`
	Errors     int     `json:"errors"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// resultAnswer renders an engine result the way the server does, for
// comparison with reply.answer.
func resultAnswer(res *dccs.Result) string {
	cores := make([]server.SearchCC, len(res.Cores))
	for i, c := range res.Cores {
		cores[i] = server.SearchCC{Layers: c.Layers, Vertices: c.Vertices}
	}
	return fmt.Sprintf("%s|%d", mustJSON(cores), res.CoverSize)
}

// replyResult rebuilds the engine result a reply carries, for
// dccs.Validate.
func replyResult(r *reply) (*dccs.Result, error) {
	var cores []server.SearchCC
	if err := json.Unmarshal(r.Cores, &cores); err != nil {
		return nil, err
	}
	res := &dccs.Result{CoverSize: r.CoverSize}
	for _, c := range cores {
		res.Cores = append(res.Cores, dccs.CC{Layers: c.Layers, Vertices: c.Vertices})
	}
	return res, nil
}

// warmUp sends ops over both connections before the window opens; each
// must succeed, answered from one of sources.
func warmUp(c *http.Client, base string, ops []op, sources ...string) ([]rec, error) {
	recs := make([]rec, len(ops))
	err := parallel(len(ops), 2, func(i int) error {
		rc := record(send(c, base, ops[i], i, time.Now()), ops[i])
		checkItems(&rc, sources...)
		if !rc.ok() || rc.bad != "" {
			return fmt.Errorf("warm-up op %d: status %d, %v %s", i, rc.status, rc.err, rc.bad)
		}
		recs[i] = rc
		return nil
	})
	return recs, err
}

// searchOps are single searches of qs.
func searchOps(qs []dccs.Query) []op {
	ops := make([]op, len(qs))
	for i, q := range qs {
		ops[i] = op{path: "/v1/search", body: searchBody(q), items: []int{i}}
	}
	return ops
}

// parallel runs f(0..n-1) on the given number of workers and returns the
// first error.
func parallel(n, workers int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && errs[w] == nil; i = int(next.Add(1) - 1) {
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

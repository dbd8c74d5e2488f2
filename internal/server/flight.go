package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	dccs "repro"
)

// errLeaderFailed is what followers receive when the request leading
// their flight ended without finishing it.
var errLeaderFailed = errors.New("server: the coalesced computation failed")

// flightGroup coalesces concurrent identical queries: the first request
// to join a key leads the flight and runs the computation; requests that
// join the key while it is open follow and share the leader's result.
// This is sound because equal keys guarantee interchangeable results
// (Engine.CacheKey) and results are immutable — see DESIGN.md. A
// homegrown singleflight keeps the module dependency-free.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// flightCall is one open computation. done is closed exactly once,
// after val and err are final; followers only read them after <-done.
type flightCall struct {
	done chan struct{}
	val  *dccs.Result
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: map[string]*flightCall{}}
}

// join returns the open flight for key, opening it when there is none;
// lead reports that the caller opened it and so must finish it.
func (g *flightGroup) join(key string) (c *flightCall, lead bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := g.m[key]; c != nil {
		return c, false
	}
	c = &flightCall{done: make(chan struct{})}
	g.m[key] = c
	return c, true
}

// finish publishes the leader's outcome to the followers of c and
// closes the flight, so the next request for key leads a new one. Only
// the first finish of a flight counts, which lets a leader's deferred
// cleanup finish every flight it opened unconditionally.
func (g *flightGroup) finish(key string, c *flightCall, val *dccs.Result, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m[key] != c {
		return
	}
	delete(g.m, key)
	c.val, c.err = val, err
	close(c.done)
}

// wait returns the flight's outcome, or gives up when ctx ends first
// (the leader's computation continues under its own deadline).
func (c *flightCall) wait(ctx context.Context) (*dccs.Result, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		return nil, fmt.Errorf("request expired before computation finished: %w", ctx.Err())
	}
}

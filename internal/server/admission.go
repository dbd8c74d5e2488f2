package server

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
)

// errBusy signals admission rejection; the handler maps it to 429.
var errBusy = errors.New("server: saturated: admission queue is full")

// semaphore is the server's one admission primitive: size tokens shared
// by engine computations and edge updates, granted strictly in arrival
// order — a waiter of any weight queues behind every earlier waiter, so
// a light arrival never overtakes a heavy head — with at most depth
// waiters queued. A weight must not exceed size.
type semaphore struct {
	size  int64
	depth int
	// inflight and queued mirror the held tokens and the queue length
	// for lock-free reads (/metrics, tests).
	inflight, queued atomic.Int64

	mu      sync.Mutex
	held    int64
	waiters []*waiter // arrival order
}

// waiter is one queued acquire; ready is closed once its tokens are
// granted.
type waiter struct {
	n     int64
	ready chan struct{}
}

func newSemaphore(size, depth int) *semaphore {
	return &semaphore{size: int64(size), depth: depth}
}

// acquire takes n tokens: at once when they are free and nobody is
// queued, otherwise after waiting its turn. It returns errBusy when it
// would have to wait and the queue already holds depth waiters, and
// ctx.Err() when ctx ends before the grant. A waiter that leaves lets
// the waiters behind it move up, which may grant them at once.
func (s *semaphore) acquire(ctx context.Context, n int) error {
	s.mu.Lock()
	if len(s.waiters) == 0 && s.held+int64(n) <= s.size {
		s.take(int64(n))
		s.mu.Unlock()
		return nil
	}
	if len(s.waiters) >= s.depth {
		s.mu.Unlock()
		return errBusy
	}
	w := &waiter{n: int64(n), ready: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.queued.Add(1)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i := slices.Index(s.waiters, w)
	if i < 0 {
		return nil // granted as ctx ended: the tokens are ours
	}
	s.waiters = slices.Delete(s.waiters, i, i+1)
	s.queued.Add(-1)
	s.grant()
	return ctx.Err()
}

// release returns n tokens and grants them onward.
func (s *semaphore) release(n int) {
	s.mu.Lock()
	s.take(-int64(n))
	s.grant()
	s.mu.Unlock()
}

// grant hands free tokens to the queue head for as long as its weight
// fits. The caller holds mu.
func (s *semaphore) grant() {
	for len(s.waiters) > 0 && s.held+s.waiters[0].n <= s.size {
		w := s.waiters[0]
		s.waiters = slices.Delete(s.waiters, 0, 1)
		s.queued.Add(-1)
		s.take(w.n)
		close(w.ready)
	}
}

// take moves n tokens into (or, negative, out of) the held count. The
// caller holds mu.
func (s *semaphore) take(n int64) {
	s.held += n
	s.inflight.Add(n)
}

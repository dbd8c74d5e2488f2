package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestSemaphore(size, depth int) *semaphore {
	return newSemaphore(size, depth)
}

// acquireAsync starts s.acquire(ctx, n) and returns the channel its
// result arrives on; len(ch) == 1 once it has returned.
func acquireAsync(ctx context.Context, s *semaphore, n int) chan error {
	ch := make(chan error, 1)
	go func() { ch <- s.acquire(ctx, n) }()
	return ch
}

// receive waits up to 5 seconds for an acquire result.
func receive(t *testing.T, ch chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("acquire still waiting after 5s")
		return nil
	}
}

// TestSemaphoreFIFOMixedWeights: grants go in arrival order whatever the
// weights, so a weight-1 arrival that would fit the free token still
// queues behind a waiting weight-2 head.
func TestSemaphoreFIFOMixedWeights(t *testing.T) {
	s := newTestSemaphore(2, 8)
	ctx := context.Background()
	if err := s.acquire(ctx, 1); err != nil {
		t.Fatal(err)
	}
	heavy := acquireAsync(ctx, s, 2)
	waitFor(t, func() bool { return s.queued.Load() == 1 })
	light := acquireAsync(ctx, s, 1)
	waitFor(t, func() bool { return s.queued.Load() == 2 || len(light) == 1 })
	if len(light) == 1 {
		t.Fatal("a weight-1 arrival passed the waiting weight-2 head")
	}

	s.release(1)
	if err := receive(t, heavy); err != nil {
		t.Fatal(err)
	}
	if in, q := s.inflight.Load(), s.queued.Load(); in != 2 || q != 1 {
		t.Fatalf("after the head's grant: inflight %d queued %d, want 2 and 1", in, q)
	}
	s.release(2)
	if err := receive(t, light); err != nil {
		t.Fatal(err)
	}
	s.release(1)
	if in, q := s.inflight.Load(), s.queued.Load(); in != 0 || q != 0 {
		t.Fatalf("after every release: inflight %d queued %d, want 0 and 0", in, q)
	}
}

// TestSemaphoreQueueBoundIsExact fires many concurrent arrivals at a
// saturated semaphore: exactly depth of them queue, every other one is
// refused, and the queue gauge never reads above depth.
func TestSemaphoreQueueBoundIsExact(t *testing.T) {
	const depth, arrivals = 4, 64
	s := newTestSemaphore(1, depth)
	if err := s.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	var peak atomic.Int64
	monitor, stopMonitor := context.WithCancel(context.Background())
	defer stopMonitor()
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		for monitor.Err() == nil {
			if q := s.queued.Load(); q > peak.Load() {
				peak.Store(q)
			}
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := make(chan error, arrivals)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < arrivals; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results <- s.acquire(ctx, 1)
		}()
	}
	close(start)
	waitFor(t, func() bool { return int(s.queued.Load())+len(results) == arrivals })
	if q := s.queued.Load(); q != depth {
		t.Fatalf("%d waiters queued, want exactly %d", q, depth)
	}
	for i := 0; i < arrivals-depth; i++ {
		if err := <-results; !errors.Is(err, errBusy) {
			t.Fatalf("refused arrival got %v, want errBusy", err)
		}
	}
	cancel()
	wg.Wait()
	for i := 0; i < depth; i++ {
		if err := <-results; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
		}
	}
	stopMonitor()
	<-monitorDone
	if p := peak.Load(); p > depth {
		t.Fatalf("queue gauge peaked at %d, above the bound %d", p, depth)
	}
	if in, q := s.inflight.Load(), s.queued.Load(); in != 1 || q != 0 {
		t.Fatalf("inflight %d queued %d, want 1 and 0", in, q)
	}
}

// TestSemaphoreLeavingWaiterWakesNext: when the queue head leaves on its
// deadline or on a drain, the waiter behind it that fits the free
// tokens is granted at once, with no release needed.
func TestSemaphoreLeavingWaiterWakesNext(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drain bool
		want  error
	}{
		{"deadline", false, context.DeadlineExceeded},
		{"drain", true, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestSemaphore(2, 8)
			if err := s.acquire(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			// The head's context is a computation context: the server's
			// lifetime (cancelled by a drain) plus the request deadline.
			life, drain := context.WithCancel(context.Background())
			defer drain()
			deadline := time.Minute
			if !tc.drain {
				deadline = 30 * time.Millisecond
			}
			hctx, hcancel := context.WithTimeout(life, deadline)
			defer hcancel()
			head := acquireAsync(hctx, s, 2)
			waitFor(t, func() bool { return s.queued.Load() == 1 })
			behind := acquireAsync(context.Background(), s, 1)
			waitFor(t, func() bool { return s.queued.Load() == 2 })
			if tc.drain {
				drain()
			}
			if err := receive(t, head); !errors.Is(err, tc.want) {
				t.Fatalf("head got %v, want %v", err, tc.want)
			}
			if err := receive(t, behind); err != nil {
				t.Fatalf("waiter behind the head got %v, want a grant", err)
			}
			if in, q := s.inflight.Load(), s.queued.Load(); in != 2 || q != 0 {
				t.Fatalf("inflight %d queued %d, want 2 and 0", in, q)
			}
		})
	}
}

// TestSemaphoreNegativeQueueDepth: QueueDepth < 0 leaves no queue, so
// any request that cannot be granted at once is refused.
func TestSemaphoreNegativeQueueDepth(t *testing.T) {
	cfg := Config{MaxInflight: 2, QueueDepth: -1}.withDefaults()
	s := newTestSemaphore(cfg.MaxInflight, cfg.QueueDepth)
	// A request that wrongly queues fails the step on this deadline
	// instead of hanging the test.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	steps := []struct {
		op   string
		n    int
		busy bool
	}{
		{"acquire", 1, false},
		{"acquire", 2, true}, // one token free, two wanted
		{"acquire", 1, false},
		{"acquire", 1, true},
		{"release", 2, false},
		{"acquire", 2, false},
	}
	for i, st := range steps {
		if st.op == "release" {
			s.release(st.n)
			continue
		}
		err := s.acquire(ctx, st.n)
		if st.busy != errors.Is(err, errBusy) || (!st.busy && err != nil) {
			t.Fatalf("step %d: acquire(%d) = %v, want busy=%v", i, st.n, err, st.busy)
		}
		if q := s.queued.Load(); q != 0 {
			t.Fatalf("step %d: %d queued with no queue", i, q)
		}
	}
}

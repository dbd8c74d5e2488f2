package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	dccs "repro"
)

// Config carries the process-lifetime settings of a Server. The zero
// value selects sensible production defaults (see each field).
type Config struct {
	// MaxInflight bounds the number of engine computations running at
	// once; requests beyond it wait in the admission queue. 0 means
	// GOMAXPROCS.
	MaxInflight int
	// QueueDepth bounds how many requests may wait for an inflight slot
	// before new arrivals are rejected with 429. 0 means 4×MaxInflight;
	// negative means no waiting (reject as soon as all slots are busy).
	QueueDepth int
	// CacheEntries is the LRU result-cache capacity. 0 means 1024;
	// negative disables result caching (coalescing still applies).
	CacheEntries int
	// DefaultTimeout bounds a query's computation when the request does
	// not set timeout_ms. 0 means 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied timeouts. 0 means 5m.
	MaxTimeout time.Duration
	// SnapshotDir, when non-empty, enables snapshot persistence: at
	// startup each graph's engine warm-starts from <dir>/<name>.mlgs if
	// present, and Shutdown (plus the periodic loop, if enabled) saves
	// the artifacts back.
	SnapshotDir string
	// SnapshotInterval, when positive and SnapshotDir is set, saves
	// every engine's artifacts on this period in the background.
	SnapshotInterval time.Duration
	// MaxUpdateBytes bounds the body of POST /v1/graphs/{id}/edges and
	// POST /v1/search/batch; larger bodies are rejected with 413. 0
	// means 4 MiB. Both batch kinds are materialized in memory before
	// validation, so the bound is the lever that keeps a hostile client
	// from ballooning the heap.
	MaxUpdateBytes int64
	// MaxBatchQueries bounds how many queries one POST /v1/search/batch
	// body may carry; larger batches are rejected with 413. 0 means 64.
	MaxBatchQueries int
	// Engine is the configuration shared by every engine this server
	// builds.
	Engine dccs.EngineConfig
	// Logf receives operational log lines (snapshot saves, load
	// failures). nil discards them.
	Logf func(format string, args ...any)
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.MaxInflight == 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxInflight < 1 {
		c.MaxInflight = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxInflight
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxUpdateBytes <= 0 {
		c.MaxUpdateBytes = 4 << 20
	}
	if c.MaxBatchQueries == 0 {
		c.MaxBatchQueries = 64
	}
	if c.MaxBatchQueries < 1 {
		c.MaxBatchQueries = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// GraphSpec names one graph a Server serves. Mutable graphs accept
// edge-update batches through POST /v1/graphs/{name}/edges; immutable
// ones answer that endpoint with 409. Mmap marks a graph whose CSR
// arrays alias an open file mapping (dccs.OpenMappedGraphFile; the
// dccs-serve -mmap path): purely informational for the server — it is
// reported per graph in /healthz so operators can confirm which load
// path a replica took — but the caller owning the mapping must keep it
// open until the Server is shut down.
type GraphSpec struct {
	Name    string
	Graph   *dccs.Graph
	Mutable bool
	Mmap    bool
}

// graphHandle pairs a named graph with its long-lived engine.
type graphHandle struct {
	name string
	g    *dccs.Graph
	eng  *dccs.Engine
	mmap bool
}

// Server serves DCCS queries over HTTP for a fixed set of graphs, one
// immutable dccs.Engine per graph. It is safe for concurrent use; all
// mutable state (cache, counters, admission) is internally synchronized.
type Server struct {
	cfg    Config
	start  time.Time
	graphs map[string]*graphHandle
	names  []string // insertion order, for stable /v1/graphs listings

	cache  *resultCache
	flight *flightGroup

	// Admission: sem holds MaxInflight tokens; queued counts requests
	// waiting for one, bounded by QueueDepth. bulk (capacity 1) admits
	// at most one multi-token acquirer into the token-collection loop at
	// a time, which is what makes weighted batch admission deadlock-free
	// (see acquireN).
	sem    chan struct{}
	queued atomic.Int64
	bulk   chan struct{}

	// queryCtx parents every computation context; Shutdown cancels it,
	// draining in-flight searches via the engines' cancellation support.
	queryCtx    context.Context
	cancelQuery context.CancelFunc

	// Drain accounting. inflightWG counts live search handlers; the
	// mutex orders handler registration against Shutdown's drain flip,
	// so inflightWG.Add can never race Shutdown's Wait at counter zero
	// (a documented WaitGroup misuse) and no handler slips in between
	// the drain flip and the final snapshot. draining stays an atomic
	// for the cheap reads on side paths (healthz, metrics).
	drainMu    sync.Mutex
	inflightWG sync.WaitGroup
	draining   atomic.Bool

	snapStop chan struct{}
	snapWG   sync.WaitGroup

	metrics serverMetrics
}

// New builds a Server over the given graphs. Engines are created
// immediately (cheap — artifacts build lazily) and, when
// cfg.SnapshotDir is set, warm-started from per-graph .mlgs snapshots;
// a missing snapshot is normal (first boot), a stale or corrupt one is
// logged and ignored. The periodic snapshot loop starts here when
// configured; stop it with Shutdown.
func New(cfg Config, specs ...GraphSpec) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(specs) == 0 {
		return nil, errors.New("server: no graphs to serve")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		start:       time.Now(),
		graphs:      map[string]*graphHandle{},
		cache:       newResultCache(cfg.CacheEntries),
		flight:      newFlightGroup(),
		sem:         make(chan struct{}, cfg.MaxInflight),
		bulk:        make(chan struct{}, 1),
		queryCtx:    ctx,
		cancelQuery: cancel,
		snapStop:    make(chan struct{}),
	}
	for _, spec := range specs {
		if spec.Name == "" || spec.Graph == nil {
			cancel()
			return nil, fmt.Errorf("server: graph spec needs a name and a graph (got %q, %v)", spec.Name, spec.Graph != nil)
		}
		if _, dup := s.graphs[spec.Name]; dup {
			cancel()
			return nil, fmt.Errorf("server: duplicate graph name %q", spec.Name)
		}
		g := spec.Graph
		if spec.Mutable && cfg.SnapshotDir != "" {
			// A mutable graph's current edge set lives in the snapshot dir
			// once updates have been applied; prefer it over the (stale)
			// boot-time graph so the artifact snapshot's fingerprint gate
			// matches and updates resume where the last process stopped.
			path := s.liveGraphPath(spec.Name)
			if lg, err := dccs.ReadGraphFile(path); err == nil {
				g = lg
				cfg.Logf("server: %s: resumed mutated graph from %s", spec.Name, path)
			} else if !errors.Is(err, os.ErrNotExist) {
				cfg.Logf("server: %s: ignoring mutated graph: %v", spec.Name, err)
			}
		}
		var eng *dccs.Engine
		var err error
		if spec.Mutable {
			eng, err = dccs.NewMutableEngine(g, cfg.Engine)
		} else {
			eng, err = dccs.NewEngine(g, cfg.Engine)
		}
		if err != nil {
			cancel()
			return nil, fmt.Errorf("server: %s: %w", spec.Name, err)
		}
		h := &graphHandle{name: spec.Name, g: g, eng: eng, mmap: spec.Mmap}
		if cfg.SnapshotDir != "" {
			path := s.snapshotPath(spec.Name)
			if err := eng.LoadSnapshot(path); err == nil {
				cfg.Logf("server: %s: warm-started from %s", spec.Name, path)
			} else if !errors.Is(err, os.ErrNotExist) {
				cfg.Logf("server: %s: ignoring snapshot: %v", spec.Name, err)
			}
		}
		s.graphs[spec.Name] = h
		s.names = append(s.names, spec.Name)
	}
	if cfg.SnapshotDir != "" && cfg.SnapshotInterval > 0 {
		s.snapWG.Add(1)
		go s.snapshotLoop()
	}
	return s, nil
}

// Engine returns the engine serving the named graph, for warming and
// introspection.
func (s *Server) Engine(name string) (*dccs.Engine, bool) {
	h, ok := s.graphs[name]
	if !ok {
		return nil, false
	}
	return h.eng, true
}

// GraphNames returns the served graph names in registration order.
func (s *Server) GraphNames() []string {
	return append([]string(nil), s.names...)
}

func (s *Server) snapshotPath(name string) string {
	return filepath.Join(s.cfg.SnapshotDir, name+".mlgs")
}

// liveGraphPath is where a mutable graph's current edge set persists:
// the artifact snapshot alone cannot warm-start a mutated engine, since
// it only matches the graph it was computed for.
func (s *Server) liveGraphPath(name string) string {
	return filepath.Join(s.cfg.SnapshotDir, name+".live.mlgb")
}

// snapshotLoop periodically persists every engine's artifacts.
func (s *Server) snapshotLoop() {
	defer s.snapWG.Done()
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.saveSnapshots()
		case <-s.snapStop:
			return
		}
	}
}

// saveSnapshots persists all engines. Failures are logged per graph and
// never fatal to the serving process (it must not die because a disk
// filled up), but they are also aggregated into the return value so
// Shutdown — and through it dccs-serve's exit path — can report that
// the final persist was incomplete instead of silently dropping it.
func (s *Server) saveSnapshots() error {
	if s.cfg.SnapshotDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.SnapshotDir, 0o755); err != nil {
		s.cfg.Logf("server: snapshot dir: %v", err)
		return fmt.Errorf("snapshot dir: %w", err)
	}
	var errs []error
	for _, name := range s.names {
		h := s.graphs[name]
		// Both files come from one pinned generation: an update landing
		// between the graph write and the snapshot would otherwise pair
		// this generation's graph with the next one's artifacts, which the
		// next boot rejects at the fingerprint gate.
		view := h.eng.View()
		if h.eng.Mutable() && view.Version() > 0 {
			// Persist the mutated edge set first: an artifact snapshot
			// without its graph is unloadable (fingerprint gate). The write
			// is atomic (temp + rename), like SaveSnapshot's.
			path := s.liveGraphPath(name)
			tmp := path + ".tmp"
			if err := view.Graph().WriteBinaryFile(tmp); err != nil {
				s.cfg.Logf("server: %s: live graph save: %v", name, err)
				errs = append(errs, fmt.Errorf("%s: live graph save: %w", name, err))
				continue
			}
			if err := os.Rename(tmp, path); err != nil {
				os.Remove(tmp)
				s.cfg.Logf("server: %s: live graph save: %v", name, err)
				errs = append(errs, fmt.Errorf("%s: live graph save: %w", name, err))
				continue
			}
		}
		path := s.snapshotPath(name)
		if err := view.SaveSnapshot(path); err != nil {
			s.cfg.Logf("server: %s: snapshot save: %v", name, err)
			errs = append(errs, fmt.Errorf("%s: snapshot save: %w", name, err))
			continue
		}
		s.metrics.snapshotSaves.Add(1)
		s.cfg.Logf("server: %s: snapshot saved to %s", name, path)
	}
	return errors.Join(errs...)
}

// Shutdown gracefully stops the server's query side: new searches are
// rejected with 503, every in-flight search is cancelled — each returns
// its valid partial result to its client, marked truncated — and
// Shutdown waits (bounded by ctx) for those handlers to finish before
// stopping the snapshot loop and persisting a final snapshot per graph.
// The caller owns the http.Server and should call its Shutdown after
// this one returns. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	already := s.draining.Swap(true)
	s.drainMu.Unlock()
	if already {
		return nil
	}
	s.cancelQuery()

	done := make(chan struct{})
	go func() {
		s.inflightWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("server: shutdown: in-flight queries did not drain: %w", ctx.Err())
	}

	close(s.snapStop)
	s.snapWG.Wait()
	if serr := s.saveSnapshots(); serr != nil {
		err = errors.Join(err, fmt.Errorf("server: shutdown: final snapshot: %w", serr))
	}
	return err
}

// beginRequest registers a search handler with the drain accounting,
// returning false when the server is shutting down. The registration
// happens under drainMu so it is atomic with respect to Shutdown's
// drain flip: either the handler is counted before the flip (and
// Shutdown waits for it) or it observes draining and never starts.
func (s *Server) beginRequest() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflightWG.Add(1)
	return true
}

// errBusy signals admission rejection; the handler maps it to 429.
var errBusy = errors.New("server: saturated: admission queue is full")

// errDraining signals shutdown rejection; the handler maps it to 503.
var errDraining = errors.New("server: shutting down")

// acquire admits one computation: immediately when an inflight slot is
// free, after queueing (bounded by QueueDepth) otherwise. ctx is the
// computation context (server lifetime + request deadline, never a
// client connection): it returns errBusy when the queue is full,
// errDraining when the server shut down while waiting, or ctx.Err()
// when the computation deadline expired in the queue.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		s.metrics.inflight.Add(1)
		return nil
	default:
	}
	// All slots busy: join the bounded queue. The increment is optimistic
	// — two racing requests may both see the last queue seat — which can
	// momentarily overshoot QueueDepth by the number of racers, never
	// lose a rejection.
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.metrics.rejectedQueueFull.Add(1)
		return errBusy
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		s.metrics.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return s.admissionErr(ctx)
	}
}

// release returns an admission slot.
func (s *Server) release() {
	s.metrics.inflight.Add(-1)
	<-s.sem
}

// acquireN admits n computations as one unit — the weighted-admission
// path for batch requests, which charge their engine fan-out against
// the same semaphore as single queries instead of bypassing it. Callers
// must clamp n to MaxInflight (HandleSearchBatch does), or the loop
// could never finish collecting.
//
// Deadlock-freedom: a multi-token acquirer holds the tokens it has
// while waiting for more — exactly the hold-and-wait a counting
// semaphore cannot allow from many sides at once. Two guarantees break
// the cycle: the bulk channel (capacity 1) admits at most one collector
// at a time, and single-token acquirers never hold-and-wait. So every
// token the collector is missing is held either free in sem or by a
// running computation that will release it; no one is waiting on the
// collector.
//
// Queue accounting: a collecting batch occupies one QueueDepth seat
// regardless of weight, the same unit a waiting single query occupies.
// When the queue is full (or QueueDepth is 0) a batch that cannot take
// all n tokens immediately is rejected with errBusy → 429.
func (s *Server) acquireN(ctx context.Context, n int) error {
	if n <= 0 {
		return nil
	}
	select {
	case s.bulk <- struct{}{}:
	case <-ctx.Done():
		return s.admissionErr(ctx)
	}
	defer func() { <-s.bulk }()
	got := 0
	for got < n {
		select {
		case s.sem <- struct{}{}:
			got++
			continue
		default:
		}
		break
	}
	if got == n {
		s.metrics.inflight.Add(int64(n))
		return nil
	}
	// Some slots are busy: join the bounded queue as one waiter.
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.drainTokens(got)
		s.metrics.rejectedQueueFull.Add(1)
		return errBusy
	}
	defer s.queued.Add(-1)
	for got < n {
		select {
		case s.sem <- struct{}{}:
			got++
		case <-ctx.Done():
			s.drainTokens(got)
			return s.admissionErr(ctx)
		}
	}
	s.metrics.inflight.Add(int64(n))
	return nil
}

// admissionErr maps an expired admission wait to the right rejection:
// ctx parents from the server lifetime context, so its Done covers both
// shutdown and the computation deadline.
func (s *Server) admissionErr(ctx context.Context) error {
	if s.queryCtx.Err() != nil {
		s.metrics.rejectedDraining.Add(1)
		return errDraining
	}
	s.metrics.rejectedWaitTimeout.Add(1)
	return ctx.Err()
}

// drainTokens returns n raw semaphore tokens (not yet counted inflight).
func (s *Server) drainTokens(n int) {
	for i := 0; i < n; i++ {
		<-s.sem
	}
}

// releaseN returns the n admission slots acquireN granted.
func (s *Server) releaseN(n int) {
	if n <= 0 {
		return
	}
	s.metrics.inflight.Add(int64(-n))
	s.drainTokens(n)
}

// Routes lists every route Handler serves, one "METHOD /path" line per
// endpoint. API.md documents exactly this list — the route-diff test in
// docs_test.go keeps the contract and the mux in lockstep, so a new
// endpoint that skips the documentation fails CI.
func Routes() []string {
	return []string{
		"POST /v1/search",
		"POST /v1/search/batch",
		"GET /v1/graphs",
		"POST /v1/graphs/{graph}/edges",
		"GET /v1/docs",
		"GET /healthz",
		"GET /metrics",
	}
}

// Handler returns the server's HTTP routes:
//
//	POST /v1/search              answer one DCCS query (JSON in, JSON out)
//	POST /v1/search/batch        answer up to MaxBatchQueries queries in one request
//	GET  /v1/graphs              list served graphs with stats and engine metrics
//	POST /v1/graphs/{id}/edges   apply an edge-update batch (mutable graphs)
//	GET  /v1/docs                the API contract (API.md) as markdown text
//	GET  /healthz                liveness (503 while draining) + per-graph status
//	GET  /metrics                Prometheus text-format counters
//
// Keep this list in sync with Routes and API.md.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/search", s.handleSearch)
	mux.HandleFunc("/v1/search/batch", s.HandleSearchBatch)
	mux.HandleFunc("/v1/graphs", s.handleGraphs)
	mux.HandleFunc("POST /v1/graphs/{graph}/edges", s.handleUpdateEdges)
	mux.HandleFunc("/v1/docs", s.handleDocs)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

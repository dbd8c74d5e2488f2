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

	// admission grants MaxInflight tokens in arrival order, with at most
	// QueueDepth requests waiting for them.
	admission *semaphore

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
		queryCtx:    ctx,
		cancelQuery: cancel,
		snapStop:    make(chan struct{}),
	}
	s.admission = newSemaphore(cfg.MaxInflight, cfg.QueueDepth)
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
			// without its graph is unloadable (fingerprint gate). The file
			// is replaced through a rename, like SaveSnapshot's.
			if err := view.Graph().WriteBinaryFile(s.liveGraphPath(name)); err != nil {
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

// beginRequest registers a search or update handler with the drain accounting,
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

// route is one endpoint of Handler. drained marks the handlers that
// register with the drain accounting, so Shutdown waits for them.
type route struct {
	method, path string
	handle       func(*Server, http.ResponseWriter, *http.Request)
	drained      bool
}

// routes is the server's one route table; Routes and Handler both read
// it, and API.md documents exactly this list (the route-diff test in
// docs_test.go keeps the three in lockstep).
var routes = []route{
	{http.MethodPost, "/v1/search", (*Server).handleSearch, true},                    // answer one DCCS query
	{http.MethodPost, "/v1/search/batch", (*Server).HandleSearchBatch, true},         // up to MaxBatchQueries queries in one request
	{http.MethodGet, "/v1/graphs", (*Server).handleGraphs, false},                    // served graphs with stats and engine metrics
	{http.MethodPost, "/v1/graphs/{graph}/edges", (*Server).handleUpdateEdges, true}, // an edge-update batch (mutable graphs)
	{http.MethodGet, "/v1/docs", (*Server).handleDocs, false},                        // the API contract (API.md) as markdown
	{http.MethodGet, "/healthz", (*Server).handleHealthz, false},                     // liveness (503 while draining) + per-graph status
	{http.MethodGet, "/metrics", (*Server).handleMetrics, false},                     // Prometheus text-format metrics
}

// Routes lists every route Handler serves, one "METHOD /path" line per
// endpoint.
func Routes() []string {
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.method + " " + rt.path
	}
	return out
}

// Handler returns the server's HTTP routes. Each answers any other
// method with a JSON 405 naming the right one in Allow; the search and
// update routes answer 503 once Shutdown has begun.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.path, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != rt.method {
				w.Header().Set("Allow", rt.method)
				s.writeError(w, http.StatusMethodNotAllowed, "use %s", rt.method)
				return
			}
			if rt.drained {
				if !s.beginRequest() {
					s.metrics.rejectedDraining.Add(1)
					s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
					return
				}
				defer s.inflightWG.Done()
			}
			rt.handle(s, w, r)
		})
	}
	return mux
}

package fed

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/dispatch"
)

// Market describes one city registered with the Router.
type Market struct {
	Name string            // path segment under /v1/markets/; no slashes
	Svc  *dispatch.Service // the market's dispatch service

	// MaxInflight caps concurrent in-flight HTTP requests routed to this
	// market; excess requests are shed with 429 at the router, before
	// they touch the service. 0 leaves router-level admission unbounded
	// (the service's own WithMaxPending bound still applies).
	MaxInflight int

	// WALDir, when non-empty, is the market's write-ahead-log directory
	// and enables Router.Restart: halt the service crash-consistently,
	// dispatch.Restore from the log, and swap the rebuilt service in
	// while every other market keeps serving. DurOpts tune the reopened
	// log exactly as they would on dispatch.Restore.
	WALDir  string
	DurOpts []dispatch.DurOption
}

// marketEntry is a registered market's runtime state. The service and
// handler are swapped under their own lock during a rolling restart so
// routing to OTHER markets never blocks on a restore.
type marketEntry struct {
	name        string
	maxInflight int64
	walDir      string
	durOpts     []dispatch.DurOption

	inflight atomic.Int64

	mu        sync.RWMutex
	svc       *dispatch.Service
	h         http.Handler
	down      bool // halted for a restart: requests answer 503 until a restore lands
	restoring bool // a Restart is halting or restoring the market now
}

// Router federates named markets behind one HTTP surface:
//
//	GET  /healthz                      aggregate health, per-market breakdown
//	GET  /v1/stats                     aggregate books, per-market breakdown
//	GET  /v1/markets                   registered market names
//	POST /v1/markets/{m}/restart       rolling restart via WAL recovery
//	     /v1/markets/{m}/<endpoint>    the market's own API (MarketHandler),
//	                                   e.g. /v1/markets/porto/tasks,
//	                                   /v1/markets/porto/healthz
//
// Construct with NewRouter, add markets with Register, mount Handler.
type Router struct {
	done <-chan struct{}

	mu      sync.Mutex
	markets map[string]*marketEntry
}

// NewRouter returns an empty router. done, when non-nil, tells
// streaming per-market handlers the server is shutting down.
func NewRouter(done <-chan struct{}) *Router {
	return &Router{done: done, markets: make(map[string]*marketEntry)}
}

// Register adds a market. Names are path segments: non-empty, unique,
// and slash-free.
func (rt *Router) Register(m Market) error {
	if m.Name == "" || strings.ContainsAny(m.Name, "/ ") {
		return fmt.Errorf("fed: market name %q, want a non-empty path segment", m.Name)
	}
	if m.Svc == nil {
		return fmt.Errorf("fed: market %q registered without a service", m.Name)
	}
	if m.MaxInflight < 0 {
		return fmt.Errorf("fed: market %q max inflight %d, want ≥ 0", m.Name, m.MaxInflight)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, dup := rt.markets[m.Name]; dup {
		return fmt.Errorf("fed: market %q already registered", m.Name)
	}
	rt.markets[m.Name] = &marketEntry{
		name:        m.Name,
		maxInflight: int64(m.MaxInflight),
		walDir:      m.WALDir,
		durOpts:     m.DurOpts,
		svc:         m.Svc,
		h:           MarketHandler(m.Svc, rt.done),
	}
	return nil
}

// Names lists the registered markets, sorted.
func (rt *Router) Names() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	names := make([]string, 0, len(rt.markets))
	for name := range rt.markets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lookup returns the entry for a market name.
func (rt *Router) lookup(name string) (*marketEntry, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	e, ok := rt.markets[name]
	return e, ok
}

// Service returns the market's current dispatch service (the restored
// one after a rolling restart).
func (rt *Router) Service(name string) (*dispatch.Service, bool) {
	e, ok := rt.lookup(name)
	if !ok {
		return nil, false
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.svc, true
}

// Restart rolls one market through WAL recovery: the service is halted
// crash-consistently (no finish record — the day does NOT settle), the
// log is restored into a fresh service, and the replacement is swapped
// in. While the restore runs the market answers 503; every other market
// keeps serving untouched. The market must have been registered with a
// WALDir.
//
// A restore that fails leaves the market down, its service halted; a
// later Restart retries the restore without halting again. A Restart
// of a market whose restore is running is refused.
func (rt *Router) Restart(name string) error {
	e, ok := rt.lookup(name)
	if !ok {
		return fmt.Errorf("fed: unknown market %q", name)
	}
	if e.walDir == "" {
		return fmt.Errorf("fed: market %q has no write-ahead log to restart from", name)
	}
	e.mu.Lock()
	if e.restoring {
		e.mu.Unlock()
		return fmt.Errorf("fed: market %q is already restarting", name)
	}
	halted := e.down // an earlier restore failed after the halt
	e.down, e.restoring = true, true
	old := e.svc
	e.mu.Unlock()

	if !halted {
		if _, err := old.Halt(); err != nil {
			e.mu.Lock()
			e.down, e.restoring = false, false
			e.mu.Unlock()
			return fmt.Errorf("fed: halting market %q: %w", name, err)
		}
	}
	svc, err := dispatch.Restore(e.walDir, e.durOpts...)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.restoring = false
	if err != nil {
		// The market stays down (503) rather than serving a half-state.
		// The log on disk is intact; a later Restart retries the restore.
		return fmt.Errorf("fed: restoring market %q: %w", name, err)
	}
	e.svc = svc
	e.h = MarketHandler(svc, rt.done)
	e.down = false
	return nil
}

// Close settles every market (dispatch.Close: final snapshot, finish
// record, fsync) and reports the settled stats per market alongside the
// first error.
func (rt *Router) Close() (map[string]dispatch.Stats, error) {
	var firstErr error
	out := make(map[string]dispatch.Stats)
	for _, name := range rt.Names() {
		e, ok := rt.lookup(name)
		if !ok {
			continue
		}
		e.mu.RLock()
		svc := e.svc
		e.mu.RUnlock()
		stats, err := svc.Close()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fed: closing market %q: %w", name, err)
		}
		out[name] = stats
	}
	return out, firstErr
}

// AggregateStats is the federation-wide view of the books: sums across
// markets plus the per-market breakdown the sums reconcile against.
type AggregateStats struct {
	Markets   int     `json:"markets"`
	Tasks     int     `json:"tasks"`
	Served    int     `json:"served"`
	Rejected  int     `json:"rejected"`
	Cancelled int     `json:"cancelled"`
	Pending   int     `json:"pending"`
	Shed      int     `json:"shed"`
	FeedDrops int     `json:"feed_drops"`
	Revenue   float64 `json:"revenue"`
	Profit    float64 `json:"profit"`

	PerMarket map[string]dispatch.Stats `json:"per_market"`
}

// Stats aggregates every market's Snapshot. A halted (mid-restart)
// market answers its stats as of the halt, so the aggregate stays
// well-defined during a rolling restart.
func (rt *Router) Stats(r *http.Request) (AggregateStats, error) {
	agg := AggregateStats{PerMarket: make(map[string]dispatch.Stats)}
	for _, name := range rt.Names() {
		e, ok := rt.lookup(name)
		if !ok {
			continue
		}
		e.mu.RLock()
		svc := e.svc
		e.mu.RUnlock()
		stats, err := svc.Snapshot(r.Context())
		if err != nil {
			return agg, fmt.Errorf("fed: market %q stats: %w", name, err)
		}
		agg.Markets++
		agg.Tasks += stats.Tasks
		agg.Served += stats.Served
		agg.Rejected += stats.Rejected
		agg.Cancelled += stats.Cancelled
		agg.Pending += stats.Pending
		agg.Shed += stats.Shed
		agg.FeedDrops += stats.FeedDrops
		agg.Revenue += stats.Revenue
		agg.Profit += stats.Profit
		agg.PerMarket[name] = stats
	}
	return agg, nil
}

// downStatus names the state of a market that answers 503: "restarting"
// while a Restart is restoring it, "down" once a restore has failed.
func downStatus(restoring bool) string {
	if restoring {
		return "restarting"
	}
	return "down"
}

// Handler mounts the router's HTTP surface.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		overall := "ok"
		perMarket := make(map[string]any)
		for _, name := range rt.Names() {
			e, ok := rt.lookup(name)
			if !ok {
				continue
			}
			e.mu.RLock()
			svc, down, restoring := e.svc, e.down, e.restoring
			e.mu.RUnlock()
			if down {
				overall = "degraded"
				perMarket[name] = map[string]any{"status": downStatus(restoring)}
				continue
			}
			stats, err := svc.Snapshot(r.Context())
			if err != nil {
				overall = "degraded"
				perMarket[name] = map[string]any{"status": "error", "error": err.Error()}
				continue
			}
			body := healthBody(stats)
			body["inflight"] = e.inflight.Load()
			perMarket[name] = body
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status":  overall,
			"markets": perMarket,
		})
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		agg, err := rt.Stats(r)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, agg)
	})

	mux.HandleFunc("GET /v1/markets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"markets": rt.Names()})
	})

	mux.HandleFunc("POST /v1/markets/{market}/restart", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("market")
		if err := rt.Restart(name); err != nil {
			status := http.StatusInternalServerError
			if _, ok := rt.lookup(name); !ok {
				status = http.StatusNotFound
			}
			writeJSON(w, status, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"market": name, "restarted": true})
	})

	mux.HandleFunc("/v1/markets/{market}/{rest...}", rt.delegate)

	return mux
}

// delegate routes one request into a market's own API. The outer path
// /v1/markets/{m}/<endpoint> maps onto the market's MarketHandler
// surface: "healthz" to /healthz, everything else under /v1/ — so
// /v1/markets/porto/tasks/3/cancel lands on /v1/tasks/3/cancel of the
// porto service. Router-level admission is charged per market: each
// market's in-flight requests count against only its own MaxInflight,
// so one saturated city sheds 429 without starving the rest. The event
// feed is not charged: it lasts until its client leaves, so one open
// feed would hold a slot for as long as it is watched.
func (rt *Router) delegate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("market")
	e, ok := rt.lookup(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": fmt.Sprintf("unknown market %q", name),
		})
		return
	}
	rest := r.PathValue("rest")
	if rest != "events" {
		if n := e.inflight.Add(1); e.maxInflight > 0 && n > e.maxInflight {
			e.inflight.Add(-1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, map[string]string{
				"error": fmt.Sprintf("market %q at its in-flight bound", name),
			})
			return
		}
		defer e.inflight.Add(-1)
	}

	e.mu.RLock()
	h, down, restoring := e.h, e.down, e.restoring
	e.mu.RUnlock()
	if down {
		// Only a market being restored comes back by itself; one whose
		// restore failed stays down until the next Restart.
		if restoring {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"error": fmt.Sprintf("market %q is %s", name, downStatus(restoring)),
		})
		return
	}

	inner := "/v1/" + rest
	if rest == "healthz" {
		inner = "/healthz"
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = inner
	r2.URL.RawPath = ""
	h.ServeHTTP(w, r2)
}

package shard

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"tetrabft/internal/obs"
)

// Backend is the running sharded deployment a Gateway fronts: the TCP
// scenario engine implements it over live clusters. Calls arrive from
// http.Server goroutines, so implementations must be safe for concurrent use.
type Backend interface {
	// Submit enqueues a set(key, value) transaction on the given shard.
	Submit(shardIdx int, key, value string) error
	// Query reads the current value of key on the given shard, from the
	// state its decided log has applied.
	Query(shardIdx int, key string) (value string, found bool, err error)
	// Status snapshots per-shard and anchor progress.
	Status() Status
}

// Status is the gateway's deployment snapshot.
type Status struct {
	// Shards reports each shard cluster's progress, in shard order.
	Shards []ShardStatus `json:"shards"`
	// AnchorFinalized is the anchor cluster's finalized slot.
	AnchorFinalized int64 `json:"anchor_finalized"`
	// AnchorEpochs counts anchor commitments decided across all shards.
	AnchorEpochs int64 `json:"anchor_epochs"`
}

// ShardStatus is one shard cluster's progress snapshot.
type ShardStatus struct {
	Shard int `json:"shard"`
	// Finalized is the shard's decided-log length (min across required
	// replicas).
	Finalized int64 `json:"finalized"`
	// DecidedTxs counts the transactions on the shard's decided log
	// (client submissions that have committed).
	DecidedTxs int64 `json:"decided_txs"`
	// AnchoredSlots is the longest decided prefix the anchor cluster has
	// committed a digest for.
	AnchoredSlots int64 `json:"anchored_slots"`
}

// Gateway is the client-facing HTTP front of a sharded deployment. It
// routes each key to its home shard (Router), and serves:
//
//	POST /submit?key=K&value=V  → {"shard": s}            (route + enqueue)
//	GET  /query?key=K           → {"shard": s, "found": b, "value": v}
//	GET  /status                → Status JSON
//	GET  /metrics               → Prometheus text exposition
//	GET  /debug/pprof/*         → live profiling of the running service
//
// The listener binds 127.0.0.1:0 — the kvstore example and the CI gateway
// smoke hit it with plain curl/http.Get, which is the point: the sharded
// scenario becomes a load-testable service, not just a test harness.
type Gateway struct {
	router  Router
	backend Backend
	ln      net.Listener
	srv     *http.Server

	// metrics counts the gateway's own traffic; /metrics combines its
	// snapshot with scrape-time status-derived gauges.
	metrics  *obs.Registry
	submits  *obs.Counter
	queries  *obs.Counter
	rejected *obs.Counter
}

// NewGateway starts the HTTP gateway for a deployment of shards shards.
func NewGateway(shards int, backend Backend) (*Gateway, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: gateway needs at least one shard, got %d", shards)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("shard: gateway listen: %w", err)
	}
	reg := obs.NewRegistry()
	g := &Gateway{
		router: Router{Shards: shards}, backend: backend, ln: ln,
		metrics:  reg,
		submits:  reg.Counter("gateway_submits_total"),
		queries:  reg.Counter("gateway_queries_total"),
		rejected: reg.Counter("gateway_rejected_total"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/submit", g.handleSubmit)
	mux.HandleFunc("/query", g.handleQuery)
	mux.HandleFunc("/status", g.handleStatus)
	mux.HandleFunc("/metrics", g.handleMetrics)
	// Live profiling of the running service: the default pprof handlers,
	// mounted explicitly so the gateway never depends on the global
	// http.DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	g.srv = &http.Server{Handler: mux}
	go g.srv.Serve(ln)
	return g, nil
}

// URL returns the gateway's base URL (http://127.0.0.1:port).
func (g *Gateway) URL() string { return "http://" + g.ln.Addr().String() }

// Close stops the listener; in-flight handlers finish on their own.
func (g *Gateway) Close() error { return g.srv.Close() }

func (g *Gateway) handleSubmit(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	key := req.FormValue("key")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	s := g.router.Shard(key)
	if err := g.backend.Submit(s, key, req.FormValue("value")); err != nil {
		g.rejected.Inc()
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	g.submits.Inc()
	writeJSON(w, map[string]any{"shard": s})
}

func (g *Gateway) handleQuery(w http.ResponseWriter, req *http.Request) {
	key := req.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	s := g.router.Shard(key)
	value, found, err := g.backend.Query(s, key)
	if err != nil {
		g.rejected.Inc()
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	g.queries.Inc()
	writeJSON(w, map[string]any{"shard": s, "found": found, "value": value})
}

func (g *Gateway) handleStatus(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, g.backend.Status())
}

// handleMetrics serves the Prometheus text exposition: the gateway's own
// counters from the registry, then status-derived per-shard gauges computed
// at scrape time (finalized slots, decided transactions, anchored slots) and
// the anchor cluster's progress.
func (g *Gateway) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.metrics.WritePrometheus(w)
	st := g.backend.Status()
	fmt.Fprintf(w, "# TYPE tetrabft_shard_finalized_slots gauge\n")
	for _, s := range st.Shards {
		fmt.Fprintf(w, "tetrabft_shard_finalized_slots{shard=%q} %d\n", fmt.Sprint(s.Shard), s.Finalized)
	}
	fmt.Fprintf(w, "# TYPE tetrabft_shard_decided_txs gauge\n")
	for _, s := range st.Shards {
		fmt.Fprintf(w, "tetrabft_shard_decided_txs{shard=%q} %d\n", fmt.Sprint(s.Shard), s.DecidedTxs)
	}
	fmt.Fprintf(w, "# TYPE tetrabft_shard_anchored_slots gauge\n")
	for _, s := range st.Shards {
		fmt.Fprintf(w, "tetrabft_shard_anchored_slots{shard=%q} %d\n", fmt.Sprint(s.Shard), s.AnchoredSlots)
	}
	fmt.Fprintf(w, "# TYPE tetrabft_anchor_finalized_slots gauge\n")
	fmt.Fprintf(w, "tetrabft_anchor_finalized_slots %d\n", st.AnchorFinalized)
	fmt.Fprintf(w, "# TYPE tetrabft_anchor_epochs gauge\n")
	fmt.Fprintf(w, "tetrabft_anchor_epochs %d\n", st.AnchorEpochs)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

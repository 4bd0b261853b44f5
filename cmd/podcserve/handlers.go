package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/pkg/podc"
)

// serverConfig are the service's operational knobs, every one flag-tunable
// from main.
type serverConfig struct {
	// Timeout bounds each request's computation (0 means no bound beyond
	// the client's own disconnect).
	Timeout time.Duration
	// MaxBody caps the request body in bytes; a larger body is rejected
	// with 413 before it can buffer into the decoder.
	MaxBody int64
	// MaxInflight is the admission-control concurrency limit over the
	// computing endpoints; MaxQueue bounds how many requests may wait for a
	// slot, and QueueWait how long each waits before being shed with 429.
	MaxInflight int
	MaxQueue    int
	QueueWait   time.Duration
}

// defaultConfig are the production defaults (also the flag defaults).
func defaultConfig() serverConfig {
	return serverConfig{
		Timeout:     2 * time.Minute,
		MaxBody:     1 << 20, // 1 MiB: the largest legitimate inline structure is well under this
		MaxInflight: 64,
		MaxQueue:    256,
		QueueWait:   5 * time.Second,
	}
}

// withDefaults fills zero fields so tests can set only what they constrain.
// A negative MaxQueue means "no queue at all" (zero is taken by the default).
func (c serverConfig) withDefaults() serverConfig {
	d := defaultConfig()
	if c.Timeout == 0 {
		c.Timeout = d.Timeout
	}
	if c.MaxBody == 0 {
		c.MaxBody = d.MaxBody
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = d.MaxInflight
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = d.MaxQueue
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueWait == 0 {
		c.QueueWait = d.QueueWait
	}
	return c
}

// server holds the shared session every handler answers from, the admission
// semaphore, and the metrics surface.
type server struct {
	session *podc.Session
	cfg     serverConfig
	metrics *serverMetrics

	// sem holds one token per admitted in-flight computation; queued counts
	// requests waiting for a token.
	sem    chan struct{}
	queued atomic.Int64
}

// newServer wires the session, config and metrics registry together.
func newServer(session *podc.Session, cfg serverConfig) *server {
	cfg = cfg.withDefaults()
	s := &server{session: session, cfg: cfg, sem: make(chan struct{}, cfg.MaxInflight)}
	s.metrics = newServerMetrics(session,
		func() int64 { return s.queued.Load() },
		func() int64 { return int64(len(s.sem)) })
	return s
}

// handler returns the service's HTTP handler: every computing endpoint is
// wrapped in the metrics middleware and admission control; the probes
// (/healthz, /metrics, /v1/store) bypass admission so an operator can always
// see a saturated service.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	admitted := func(endpoint string, h http.HandlerFunc) http.Handler {
		return s.instrument(endpoint, s.admit(h))
	}
	mux.Handle("POST /v1/check", admitted("/v1/check", s.handleCheck))
	mux.Handle("POST /v1/correspond", admitted("/v1/correspond", s.handleCorrespond))
	mux.Handle("POST /v1/transfer", admitted("/v1/transfer", s.handleTransfer))
	mux.Handle("GET /v1/experiments/{id}", admitted("/v1/experiments", s.handleExperiment))
	mux.Handle("GET /v1/sweep", admitted("/v1/sweep", s.handleSweep))
	mux.Handle("GET /v1/store", s.instrument("/v1/store", http.HandlerFunc(s.handleStoreStats)))
	mux.Handle("GET /metrics", s.metrics.registry.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// newHandler returns the service's HTTP handler over the given session —
// the convenience constructor the tests use.
func newHandler(session *podc.Session, cfg serverConfig) http.Handler {
	return newServer(session, cfg).handler()
}

// statusRecorder captures the status a handler wrote so the metrics
// middleware can label the request's outcome.  It forwards Flush so the SSE
// handler can stream through it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument is the metrics middleware: per-endpoint in-flight gauge,
// request counter by status class, and a latency histogram.
func (s *server) instrument(endpoint string, next http.Handler) http.Handler {
	inflight := s.metrics.inflight.With(endpoint)
	latency := s.metrics.latency.With(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inflight.Inc()
		defer inflight.Dec()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		latency.Observe(time.Since(start).Seconds())
		s.metrics.requests.With(endpoint, codeClass(rec.status)).Inc()
	})
}

// admit is the admission-control middleware: a request either takes a
// semaphore slot immediately, waits in a bounded queue for up to QueueWait,
// or is shed with 429 and a Retry-After hint.  Heavy traffic therefore
// degrades into prompt, explicit rejections instead of an unbounded pile of
// computing goroutines.
func (s *server) admit(next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			// No free slot: join the bounded wait queue or shed.
			if int(s.queued.Add(1)) > s.cfg.MaxQueue {
				s.queued.Add(-1)
				s.shed(w, r)
				return
			}
			wait := time.NewTimer(s.cfg.QueueWait)
			select {
			case s.sem <- struct{}{}:
				s.queued.Add(-1)
				wait.Stop()
			case <-wait.C:
				s.queued.Add(-1)
				s.shed(w, r)
				return
			case <-r.Context().Done():
				s.queued.Add(-1)
				wait.Stop()
				httpError(w, r, 499, r.Context().Err())
				return
			}
		}
		defer func() { <-s.sem }()
		next(w, r)
	})
}

// shed rejects a request under load.  Retry-After is the queue wait rounded
// up: by then either a slot freed or the client should back off further.
func (s *server) shed(w http.ResponseWriter, r *http.Request) {
	s.metrics.shed.Inc()
	secs := int(s.cfg.QueueWait / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	httpError(w, r, http.StatusTooManyRequests,
		fmt.Errorf("server at capacity (%d in flight, %d queued); retry after %ds",
			s.cfg.MaxInflight, s.cfg.MaxQueue, secs))
}

// decodeRequest decodes the JSON request body into `into` with the
// service's hardening applied: the body is capped at MaxBody bytes
// (overflow is 413, not an OOM), unknown fields are rejected with a 400
// naming the field, so a typoed "topolgy" fails loudly instead of silently
// running the default topology, and anything but whitespace after the one
// JSON value is rejected with a 400 quoting it.  It writes the error
// response itself and reports whether decoding succeeded.
func (s *server) decodeRequest(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	var rest []byte
	if err == nil {
		rest, err = io.ReadAll(io.MultiReader(dec.Buffered(), r.Body))
	}
	var maxErr *http.MaxBytesError
	switch {
	case errors.As(err, &maxErr):
		httpError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d byte limit", maxErr.Limit))
		return false
	case err != nil:
		httpError(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	if trailing := bytes.TrimLeft(rest, " \t\r\n"); len(trailing) > 0 {
		const show = 32
		if len(trailing) > show {
			trailing = trailing[:show]
		}
		httpError(w, r, http.StatusBadRequest,
			fmt.Errorf("decoding request: trailing data after the JSON value: %q", trailing))
		return false
	}
	return true
}

// requestContext derives the computation context for one request.
func (s *server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.Timeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.Timeout)
	}
	return context.WithCancel(r.Context())
}

// checkRequest is the body of POST /v1/check.  The structure is given
// either as a ring size (served from the session cache) or inline in the
// library's text format.
type checkRequest struct {
	// Ring selects the token-ring instance M_ring.
	Ring int `json:"ring,omitempty"`
	// Structure is an inline structure in the text format (alternative to
	// Ring).
	Structure string `json:"structure,omitempty"`
	// Formula is the CTL*/ICTL* formula to check (required).
	Formula string `json:"formula"`
	// Minimize quotients an inline structure before checking.
	Minimize bool `json:"minimize,omitempty"`
	// Evidence requests an explanation of the verdict: the decisive
	// subformula and, where its shape admits one, a witness or
	// counterexample trace.
	Evidence bool `json:"evidence,omitempty"`
}

// checkEvidence is the explanation object of a /v1/check response.
type checkEvidence struct {
	Decisive      string `json:"decisive,omitempty"`
	DecisiveHolds bool   `json:"decisive_holds"`
	Trace         string `json:"trace,omitempty"`
	TraceStates   []int  `json:"trace_states,omitempty"`
	TraceLoop     int    `json:"trace_loop"`
	Note          string `json:"note,omitempty"`
}

type checkResponse struct {
	Holds      bool           `json:"holds"`
	Formula    string         `json:"formula"`
	Structure  string         `json:"structure"`
	States     int            `json:"states"`
	Restricted bool           `json:"restricted"`
	Evidence   *checkEvidence `json:"evidence,omitempty"`
	ElapsedMS  int64          `json:"elapsed_ms"`
}

// explainCheck runs Verifier.Explain and packages the explanation.
func explainCheck(ctx context.Context, v *podc.Verifier, formula podc.Formula) (*checkEvidence, error) {
	ex, err := v.Explain(ctx, formula)
	if err != nil {
		return nil, err
	}
	out := &checkEvidence{DecisiveHolds: ex.DecisiveHolds, Note: ex.Note, TraceLoop: -1}
	if ex.Decisive.IsValid() {
		out.Decisive = ex.Decisive.String()
	}
	if ex.Trace != nil {
		out.Trace = ex.Trace.String()
		out.TraceLoop = ex.Trace.LoopStart
		for _, s := range ex.Trace.States {
			out.TraceStates = append(out.TraceStates, int(s))
		}
	}
	return out, nil
}

func (s *server) handleCheck(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	var req checkRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	formula, err := podc.ParseFormula(req.Formula)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	resp := checkResponse{Formula: formula.String(), Restricted: formula.IsRestricted()}
	switch {
	case req.Ring > 0 && req.Structure != "":
		httpError(w, r, http.StatusBadRequest, errors.New("give either ring or structure, not both"))
		return
	case req.Ring > 0:
		if err := podc.RingTopology().ValidSize(req.Ring); err != nil {
			httpError(w, r, http.StatusBadRequest, err)
			return
		}
		v, err := s.session.Verifier(ctx, podc.RingTopology(), req.Ring)
		if err != nil {
			httpError(w, r, statusFor(err), err)
			return
		}
		holds, err := v.Check(ctx, formula)
		if err != nil {
			httpError(w, r, statusFor(err), err)
			return
		}
		resp.Holds = holds
		resp.Structure = v.Original().Name()
		resp.States = v.Original().NumStates()
		if req.Evidence {
			ev, err := explainCheck(ctx, v, formula)
			if err != nil {
				httpError(w, r, statusFor(err), err)
				return
			}
			resp.Evidence = ev
		}
	case req.Structure != "":
		m, err := podc.ParseStructure(req.Structure)
		if err != nil {
			httpError(w, r, http.StatusBadRequest, err)
			return
		}
		// CTL* semantics needs a total transition relation; a deadlocked
		// structure would get a verdict the logic does not define.
		if err := m.Validate(); err != nil {
			httpError(w, r, http.StatusBadRequest, err)
			return
		}
		opts := []podc.Option{}
		if req.Minimize {
			opts = append(opts, podc.WithMinimize())
		}
		v, err := podc.NewVerifier(ctx, m, opts...)
		if err != nil {
			httpError(w, r, statusFor(err), err)
			return
		}
		holds, err := v.Check(ctx, formula)
		if err != nil {
			httpError(w, r, statusFor(err), err)
			return
		}
		resp.Holds = holds
		resp.Structure = m.Name()
		resp.States = v.Structure().NumStates()
		if req.Evidence {
			ev, err := explainCheck(ctx, v, formula)
			if err != nil {
				httpError(w, r, statusFor(err), err)
				return
			}
			resp.Evidence = ev
		}
	default:
		httpError(w, r, http.StatusBadRequest, errors.New("missing ring size or inline structure"))
		return
	}
	resp.ElapsedMS = time.Since(start).Milliseconds()
	writeJSON(w, r, http.StatusOK, resp)
}

// correspondRequest is the body of POST /v1/correspond.
type correspondRequest struct {
	// Topology selects the family to compare within ("ring", "star",
	// "line", "tree", "torus", "torus3"); it defaults to the token ring.
	Topology string `json:"topology,omitempty"`
	// Small and Large select the instance sizes to compare (Small defaults
	// to the topology's cutoff, e.g. 3 for the ring).
	Small int `json:"small,omitempty"`
	Large int `json:"large"`
	// Evidence requests, for a failed correspondence, the machine-checked
	// explanation: the failing index pair and the distinguishing formula
	// over its reductions, replayed through the model checker.
	Evidence bool `json:"evidence,omitempty"`
}

// correspondEvidence is the explanation object of a failed /v1/correspond.
type correspondEvidence struct {
	Reason    string         `json:"reason"`
	Pair      podc.IndexPair `json:"pair"`
	Formula   string         `json:"formula,omitempty"`
	Confirmed bool           `json:"confirmed"`
	GameSide  string         `json:"game_side,omitempty"`
	GamePath  []int          `json:"game_path,omitempty"`
	GameLoop  int            `json:"game_loop"`
}

type correspondResponse struct {
	Topology     string              `json:"topology"`
	Small        int                 `json:"small"`
	Large        int                 `json:"large"`
	Corresponds  bool                `json:"corresponds"`
	MaxDegree    int                 `json:"max_degree"`
	IndexPairs   int                 `json:"index_pairs"`
	FailingPairs []podc.IndexPair    `json:"failing_pairs,omitempty"`
	Evidence     *correspondEvidence `json:"evidence,omitempty"`
	ElapsedMS    int64               `json:"elapsed_ms"`
}

// resolveFamilyPair validates the topology/small/large triple shared by
// the correspond and transfer endpoints, applying the topology and cutoff
// defaults.  It writes the error response itself and reports success.
func resolveFamilyPair(w http.ResponseWriter, r *http.Request, topology string, small, large *int) (podc.Topology, bool) {
	if topology == "" {
		topology = "ring"
	}
	topo, ok := podc.TopologyByName(topology)
	if !ok {
		httpError(w, r, http.StatusBadRequest, fmt.Errorf("unknown topology %q (have %s)",
			topology, strings.Join(podc.TopologyNames(), ", ")))
		return podc.Topology{}, false
	}
	if *small == 0 {
		*small = topo.CutoffSize()
	}
	if err := topo.ValidSize(*small); err != nil {
		httpError(w, r, http.StatusBadRequest, fmt.Errorf("small size: %w", err))
		return podc.Topology{}, false
	}
	if err := topo.ValidSize(*large); err != nil {
		httpError(w, r, http.StatusBadRequest, fmt.Errorf("large size: %w", err))
		return podc.Topology{}, false
	}
	if *large < *small {
		httpError(w, r, http.StatusBadRequest, fmt.Errorf("need small <= large, got small=%d large=%d", *small, *large))
		return podc.Topology{}, false
	}
	return topo, true
}

func (s *server) handleCorrespond(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	var req correspondRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	topo, ok := resolveFamilyPair(w, r, req.Topology, &req.Small, &req.Large)
	if !ok {
		return
	}
	start := time.Now()
	corr, err := s.session.Correspondence(ctx, topo, req.Small, req.Large)
	if err != nil {
		httpError(w, r, statusFor(err), err)
		return
	}
	resp := correspondResponse{
		Topology:     topo.Name(),
		Small:        req.Small,
		Large:        req.Large,
		Corresponds:  corr.Corresponds(),
		MaxDegree:    corr.MaxDegree(),
		IndexPairs:   len(corr.IndexRelation()),
		FailingPairs: corr.FailingPairs(),
	}
	if req.Evidence && !corr.Corresponds() {
		ev, err := s.session.CorrespondenceEvidence(ctx, topo, req.Small, req.Large)
		if err != nil {
			httpError(w, r, statusFor(err), err)
			return
		}
		if ev != nil {
			out := &correspondEvidence{
				Reason:    ev.Reason,
				Pair:      ev.Pair,
				Formula:   ev.FormulaText,
				Confirmed: ev.Confirmed,
				GameSide:  ev.GameSide,
				GameLoop:  ev.GameLoop,
			}
			for _, s := range ev.GamePath {
				out.GamePath = append(out.GamePath, int(s))
			}
			resp.Evidence = out
		}
	}
	resp.ElapsedMS = time.Since(start).Milliseconds()
	writeJSON(w, r, http.StatusOK, resp)
}

// transferRequest is the body of POST /v1/transfer.
type transferRequest struct {
	// Topology selects the family (defaults to the token ring).
	Topology string `json:"topology,omitempty"`
	Small    int    `json:"small,omitempty"`
	Large    int    `json:"large"`
}

func (s *server) handleTransfer(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	var req transferRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	topo, ok := resolveFamilyPair(w, r, req.Topology, &req.Small, &req.Large)
	if !ok {
		return
	}
	cert, err := s.session.TransferCertificate(ctx, topo, req.Small, req.Large)
	if err != nil {
		// "do not correspond" is a client-side fact, not a server fault.
		status := statusFor(err)
		if status == http.StatusInternalServerError && strings.Contains(err.Error(), "do not correspond") {
			status = http.StatusUnprocessableEntity
		}
		httpError(w, r, status, err)
		return
	}
	writeJSON(w, r, http.StatusOK, cert)
}

func (s *server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	id := r.PathValue("id")
	tbl, err := s.session.Experiment(ctx, id)
	if err != nil {
		status := statusFor(err)
		if status == http.StatusInternalServerError && strings.Contains(err.Error(), "unknown experiment") {
			status = http.StatusNotFound
		}
		httpError(w, r, status, err)
		return
	}
	writeJSON(w, r, http.StatusOK, tbl)
}

// storeStatsResponse is the body of GET /v1/store.
type storeStatsResponse struct {
	// Enabled reports whether the service has a working verdict store
	// (-store flag given and the directory usable).
	Enabled bool  `json:"enabled"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	// Invalid counts entries that existed but failed an integrity check
	// and were recomputed.
	Invalid int64 `json:"invalid"`
	Writes  int64 `json:"writes"`
}

// handleStoreStats reports the persistent verdict store's counters, so an
// operator can see whether a service restart is answering its battery from
// disk or re-deciding everything.
func (s *server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	st, ok := s.session.StoreStats()
	writeJSON(w, r, http.StatusOK, storeStatsResponse{
		Enabled: ok,
		Hits:    st.Hits,
		Misses:  st.Misses,
		Invalid: st.Invalid,
		Writes:  st.Writes,
	})
}

// statusFor maps computation errors to HTTP statuses: a cancelled or
// expired request context is the client's doing, and a size beyond the
// explicit-construction limit is an input that can never succeed.
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, podc.ErrTooLarge):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func httpError(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeJSON(w, r, status, map[string]string{"error": err.Error()})
}

// writeJSON encodes v as the response body.  An Encode failure after the
// header is committed cannot be reported to the client, so it is logged
// with the request that produced it — a half-written body should show up
// in the server log, not vanish.
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("podcserve: %s %s: writing response: %v", r.Method, r.URL.Path, err)
	}
}

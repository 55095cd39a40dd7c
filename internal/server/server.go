// Package server exposes the pointer analysis as a query service: an
// HTTP/JSON API over the pointsto facade, backed by the content-addressed
// result cache of internal/store.
//
// Endpoints:
//
//	POST /v1/analyze   solve (or fetch) one program under one instance;
//	                   returns the report summary plus the cache key
//	POST /v1/session   open a warm query session for a program (front end
//	                   only — no solving); queries against its key answer
//	                   through the demand engine
//	GET  /v1/pointsto  ?key=&var=   points-to set of a variable
//	GET  /v1/alias     ?key=&a=&b=  may-alias query between two variables
//	POST /v1/query     a batch of pointsto/alias queries in one round trip
//	POST /v1/compare   one program under all four §4.3 instances, diffed
//	GET  /healthz      liveness probe
//	GET  /varz         expvar-flavored counters: cache stats, solver work,
//	                   demand-engine counters, per-endpoint latency
//	                   histograms
//
// Queries answer session-first: a warm session solves just the constraint
// slice the query demands (first-query latency scales with the query, not
// the program), falling back to a cached exhaustive snapshot when no
// session is resident.
//
// The fault taxonomy of internal/fault is the wire contract: parse/sema
// faults map to 422 (the input is wrong), a tripped resource limit is NOT
// an error (200 with "incomplete": true — the facts returned are sound but
// not exhaustive), cancellation maps to 499, a query for an undefined
// variable name to 404 (kind "unknown-name"), and internal faults
// (recovered panics) to 500.
//
// Per-request limits and timeouts are clamped to the server's configured
// ceilings, so one client cannot buy more solver than the operator allows.
// Shutdown drains: in-flight solves run to completion under the drain
// timeout, then the base context is canceled and stragglers finish as 499s.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/corpus"
	"repro/internal/export"
	"repro/internal/fault"
	"repro/internal/store"
	"repro/pointsto"
)

// StatusClientClosedRequest is the non-standard 499 status (nginx
// convention) reported when an analysis is canceled mid-solve — the client
// went away or its per-request timeout expired.
const StatusClientClosedRequest = 499

// maxCompareDiffs bounds the diff section of /v1/compare responses.
const maxCompareDiffs = 100

// Config configures a Server.
type Config struct {
	// Store is the result cache (required).
	Store *store.Store
	// MaxSourceBytes bounds the request body size; 0 selects 4 MiB.
	MaxSourceBytes int64
	// CeilLimits are the per-request solver-limit ceilings; zero fields
	// leave that dimension unlimited.
	CeilLimits pointsto.Limits
	// MaxTimeout is the per-request timeout ceiling (also the default when
	// a request names none); 0 means no server-imposed timeout.
	MaxTimeout time.Duration
	// MaxSessions bounds the warm query sessions kept resident (LRU
	// eviction beyond it); 0 selects 32.
	MaxSessions int
	// MaxGraphs bounds the resumable constraint graphs kept resident for
	// base-key incremental re-analysis (LRU eviction beyond it); 0 selects
	// 64.
	MaxGraphs int
	// Admission bounds concurrent solver consumption per solve-bearing
	// endpoint (analyze, compare, session). The zero value disables
	// admission control; see AdmissionConfig.
	Admission AdmissionConfig
	// AdmissionPerEndpoint overrides Admission for named endpoints.
	AdmissionPerEndpoint map[string]AdmissionConfig
	// Chaos, when non-nil, injects deterministic faults (solve latency,
	// slow-client writes) into the request path; the store's spill hooks
	// are wired separately by the daemon. Nil in production.
	Chaos *chaos.Chaos
}

// Server is the analysis query service.
type Server struct {
	cfg        Config
	mux        *http.ServeMux
	start      time.Time
	endpoints  map[string]*endpointStats
	sessions   *sessionCache
	graphs     *graphCache
	admissions map[string]*admission
	costs      *costTable

	solves, solveSteps, solveIncomplete atomic.Int64
	solveRejected, solveCanceled        atomic.Int64
	solveNS                             atomic.Int64

	// Incremental re-analysis traffic: warm resumes served, base keys that
	// found no resident graph, and resumes that fell back to a cold solve.
	incrHits, incrMisses, incrFallbacks atomic.Int64

	// Constraint-graph layer totals across all solves (cycle elimination +
	// wave scheduling; see pointsto.SolverStats).
	solveSCCs, solveMerged, solveWaves atomic.Int64
	solveTravSaved                     atomic.Int64

	// Offline-prepass and set-interner totals.
	solvePrepClasses, solvePrepCollapsed atomic.Int64
	solveInternSets, solveInternBytes    atomic.Int64
}

// New builds a Server over the given cache.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("server: Config.Store is required")
	}
	if cfg.MaxSourceBytes <= 0 {
		cfg.MaxSourceBytes = 4 << 20
	}
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		start:      time.Now(),
		endpoints:  make(map[string]*endpointStats),
		sessions:   newSessionCache(cfg.MaxSessions),
		graphs:     newGraphCache(cfg.MaxGraphs),
		admissions: make(map[string]*admission),
		costs:      newCostTable(),
	}
	for _, endpoint := range []string{"analyze", "compare", "session"} {
		acfg := cfg.Admission
		if override, ok := cfg.AdmissionPerEndpoint[endpoint]; ok {
			acfg = override
		}
		s.admissions[endpoint] = newAdmission(acfg)
	}
	s.mux.HandleFunc("POST /v1/analyze", s.instrument("analyze", s.handleAnalyze))
	s.mux.HandleFunc("POST /v1/session", s.instrument("session", s.handleSession))
	s.mux.HandleFunc("GET /v1/pointsto", s.instrument("pointsto", s.handlePointsTo))
	s.mux.HandleFunc("GET /v1/alias", s.instrument("alias", s.handleAlias))
	s.mux.HandleFunc("POST /v1/query", s.instrument("query", s.handleQuery))
	s.mux.HandleFunc("POST /v1/compare", s.instrument("compare", s.handleCompare))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /varz", s.handleVarz)
	return s
}

// Handler returns the HTTP handler (also useful under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve runs the HTTP server on l until ctx is canceled (the daemon's
// SIGTERM path), then shuts down gracefully: the listener closes, in-flight
// requests — including running solves — drain for up to drain, and anything
// still running afterwards is canceled through the request contexts and
// finishes as a 499. Returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context, l net.Listener, drain time.Duration) error {
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	hs := &http.Server{
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return base },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	dctx := context.Background()
	if drain > 0 {
		var dcancel context.CancelFunc
		dctx, dcancel = context.WithTimeout(dctx, drain)
		defer dcancel()
	}
	err := hs.Shutdown(dctx) // waits for in-flight requests
	cancel()                 // hard-cancel stragglers that outlived the drain window
	<-errc                   // hs.Serve has returned ErrServerClosed
	if errors.Is(err, context.DeadlineExceeded) {
		return fault.New(fault.KindCanceled, "shutdown", "", err)
	}
	return err
}

// --- request plumbing ---

// clamp bounds a requested value by a ceiling: with a ceiling configured,
// "no limit requested" and "more than the ceiling" both become the ceiling.
func clamp(req, ceil int) int {
	if ceil > 0 && (req <= 0 || req > ceil) {
		return ceil
	}
	return max(req, 0)
}

func clampDuration(req, ceil time.Duration) time.Duration {
	if ceil > 0 && (req <= 0 || req > ceil) {
		return ceil
	}
	return max(req, 0)
}

// requestConfig converts request parameters into a facade Config with the
// server's ceilings applied.
func (s *Server) requestConfig(strategy pointsto.Strategy, abi string, lim LimitsJSON) pointsto.Config {
	return pointsto.Config{
		Strategy: strategy,
		ABI:      abi,
		Limits: pointsto.Limits{
			MaxSteps: clamp(lim.MaxSteps, s.cfg.CeilLimits.MaxSteps),
			MaxFacts: clamp(lim.MaxFacts, s.cfg.CeilLimits.MaxFacts),
			MaxCells: clamp(lim.MaxCells, s.cfg.CeilLimits.MaxCells),
		},
		// Timeout deliberately left zero: the deadline rides on the request
		// context so the store's singleflight can keep a solve alive while
		// other, longer-lived requests still wait on it.
	}
}

// requestContext derives the solve deadline for one request.
func (s *Server) requestContext(r *http.Request, lim LimitsJSON) (context.Context, context.CancelFunc) {
	timeout := clampDuration(time.Duration(lim.TimeoutMS)*time.Millisecond, s.cfg.MaxTimeout)
	if timeout > 0 {
		return context.WithTimeout(r.Context(), timeout)
	}
	return context.WithCancel(r.Context())
}

// resolveSources turns a request's sources-or-corpus into facade sources.
func resolveSources(sources []SourceJSON, corpusName string) ([]pointsto.Source, error) {
	switch {
	case corpusName != "" && len(sources) > 0:
		return nil, fmt.Errorf("set either sources or corpus, not both")
	case corpusName != "":
		fsrc, err := corpus.Source(corpusName)
		if err != nil {
			return nil, err
		}
		out := make([]pointsto.Source, len(fsrc))
		for i, f := range fsrc {
			out[i] = pointsto.Source{Name: f.Name, Text: f.Text}
		}
		return out, nil
	case len(sources) > 0:
		out := make([]pointsto.Source, len(sources))
		for i, src := range sources {
			if src.Name == "" {
				src.Name = fmt.Sprintf("input%d.c", i)
			}
			out[i] = pointsto.Source{Name: src.Name, Text: src.Text}
		}
		return out, nil
	}
	return nil, fmt.Errorf("no sources (set \"sources\" or \"corpus\")")
}

// parseStrategy maps an instance name ("" = common-initial-seq) to the enum.
func parseStrategy(name string) (pointsto.Strategy, error) {
	if name == "" {
		return pointsto.CIS, nil
	}
	for _, st := range pointsto.Strategies() {
		if st.String() == name {
			return st, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q (want one of %v)", name, pointsto.Strategies())
}

// decodeBody decodes a JSON request body under the configured size cap.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// --- responses ---

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body) // nothing useful to do with a write error here
}

// classify maps a classified error onto the wire contract's (status, kind)
// pair. The default is 400/"usage" for unclassified request-shaping errors.
func classify(err error) (status int, kind string) {
	kind = "usage"
	status = http.StatusBadRequest
	switch k, classified := fault.KindOf(err); {
	case classified && (k == fault.KindParse || k == fault.KindSema):
		kind, status = k.String(), http.StatusUnprocessableEntity
	case classified && k == fault.KindCanceled,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		kind, status = fault.KindCanceled.String(), StatusClientClosedRequest
	case classified && k == fault.KindUnknownName:
		kind, status = k.String(), http.StatusNotFound
	case classified && k == fault.KindOverloaded:
		// Admission control refused the work: the queue is full. 429 tells
		// the client to back off (Retry-After carries the estimate).
		kind, status = k.String(), http.StatusTooManyRequests
	case classified && k == fault.KindDeadline:
		// Shed before solving: the request's remaining deadline budget
		// cannot cover the estimated solve cost. 503 + Retry-After.
		kind, status = k.String(), http.StatusServiceUnavailable
	case classified && k == fault.KindLimit:
		// Shouldn't normally escape as an error (limit trips are reported
		// as incomplete 200s), but keep the mapping total.
		kind, status = k.String(), http.StatusOK
	case classified && k == fault.KindInternal:
		kind, status = k.String(), http.StatusInternalServerError
	}
	return status, kind
}

// writeError maps a classified error onto the wire contract. key, when
// known, lets the client retry the query later. Admission rejections carry
// their backoff hint both as a Retry-After header and in the body.
func writeError(w http.ResponseWriter, err error, key string) {
	status, kind := classify(err)
	retryAfter := setRetryAfter(w, err)
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Kind: kind, Key: key, RetryAfter: retryAfter})
}

func reportJSON(key string, snap *export.Snapshot) ReportJSON {
	out := ReportJSON{
		Key:          key,
		Strategy:     snap.Strategy,
		ABI:          snap.ABI,
		TotalFacts:   snap.TotalFacts,
		DerefSites:   snap.DerefSites,
		AvgDerefSize: snap.AvgDerefSize,
		Steps:        snap.Steps,
		DurationNS:   snap.DurationNS,
		Incomplete:   snap.Incomplete != nil,
		Stop:         snap.Incomplete,
	}
	return out
}

// --- handlers ---

// solveSnapshot runs one governed analysis through the cache, recording the
// solver counters for /varz. endpoint selects the admission controller:
// a request the memory cache or an in-flight solve can answer bypasses
// admission; one that needs real solver work must be admitted first (and
// may instead be shed — 429 when the queue is full, 503 when its deadline
// budget cannot cover the estimated cost).
//
// base, when non-empty, names a resident constraint graph to resume from:
// the solve then retracts only what the edit invalidated and re-converges
// warm, byte-identically to a cold solve. Warm solves are costed under an
// "incr|"-prefixed estimate namespace so the admission layer's deadline
// shedding learns the (much cheaper) delta-solve cost instead of blending
// it into the cold estimate for the same key. The returned IncrJSON says
// which path actually served the request (nil when nothing solved — cache
// hit or joined flight — or when no base was named).
func (s *Server) solveSnapshot(ctx context.Context, endpoint, key, base string, sources []pointsto.Source, cfg pointsto.Config) (*export.Snapshot, *IncrJSON, error) {
	if snap, ok := s.cfg.Store.Peek(key); ok {
		return snap, nil, nil
	}
	var graph *pointsto.Graph
	var info *IncrJSON
	if base != "" {
		if g, ok := s.graphs.get(base); ok && cfg.Resumable() {
			graph = g
		} else {
			s.incrMisses.Add(1)
			reason := "no-graph"
			if ok {
				reason = "config-ineligible"
			}
			info = &IncrJSON{Outcome: "cold", FallbackReason: reason}
		}
	}
	costKey := key
	if graph != nil {
		costKey = "incr|" + key
	}
	if !s.cfg.Store.Joinable(key) {
		release, err := s.admitSolve(ctx, endpoint, costKey)
		if err != nil {
			return nil, nil, err
		}
		defer release()
	}
	snap, _, err := s.cfg.Store.GetOrSolve(ctx, key, func(sctx context.Context) (*export.Snapshot, error) {
		start := time.Now()
		s.solves.Add(1)
		// Injected latency counts as solve time: chaos-slowed programs must
		// look expensive to the cost table so shedding engages.
		s.cfg.Chaos.SolveDelay(sctx)
		var rep *pointsto.Report
		var sess *pointsto.Session
		var aerr error
		if graph != nil {
			var ri *pointsto.ResumeInfo
			sess, ri, aerr = pointsto.ResumeSession(sctx, graph, sources, cfg)
			if aerr == nil {
				if ri.Outcome == "resumed" {
					s.incrHits.Add(1)
				} else {
					s.incrFallbacks.Add(1)
				}
				info = &IncrJSON{
					Outcome:        ri.Outcome,
					FallbackReason: ri.FallbackReason,
					UnitsChanged:   ri.UnitsAdded + ri.UnitsRemoved + ri.UnitsChanged,
					StmtsRetracted: ri.StmtsRetracted,
					CellsSeeded:    ri.CellsSeeded,
					FactsSeeded:    ri.FactsSeeded,
				}
			}
		} else {
			sess, aerr = pointsto.NewSession(sources, cfg)
		}
		if aerr == nil {
			rep, aerr = sess.Report(sctx)
		}
		elapsed := time.Since(start)
		s.solveNS.Add(elapsed.Nanoseconds())
		s.costs.observe(costKey, elapsed)
		if aerr != nil {
			switch k, _ := fault.KindOf(aerr); k {
			case fault.KindCanceled:
				s.solveCanceled.Add(1)
			case fault.KindParse, fault.KindSema:
				s.solveRejected.Add(1)
			}
			return nil, aerr
		}
		s.solveSteps.Add(int64(rep.Steps()))
		ss := rep.SolverStats()
		s.solveSCCs.Add(int64(ss.SCCsFound))
		s.solveMerged.Add(int64(ss.CellsMerged))
		s.solveWaves.Add(int64(ss.Waves))
		s.solveTravSaved.Add(int64(ss.TraversalsSaved))
		s.solvePrepClasses.Add(int64(ss.PrepClasses))
		s.solvePrepCollapsed.Add(int64(ss.PrepCollapsed))
		s.solveInternSets.Add(int64(ss.InternSets))
		s.solveInternBytes.Add(int64(ss.InternBytes))
		if rep.Incomplete() != nil {
			s.solveIncomplete.Add(1)
		}
		// Register the solved graph so later requests can name this key as
		// their base. Capture keeps pointers to the finished solve and costs
		// O(1); the first request that resumes the graph pays for its warm
		// state. A failure only costs warmth.
		if rep.Incomplete() == nil && cfg.Resumable() {
			if g, gerr := sess.Graph(sctx); gerr == nil {
				s.graphs.put(key, g)
			}
		}
		return export.NewSnapshot(rep, cfg.ABI), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return snap, info, nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, err, "")
		return
	}
	sources, err := resolveSources(req.Sources, req.Corpus)
	if err != nil {
		writeError(w, err, "")
		return
	}
	strategy, err := parseStrategy(req.Strategy)
	if err != nil {
		writeError(w, err, "")
		return
	}
	if req.Base != "" && !store.ValidKey(req.Base) {
		writeError(w, fmt.Errorf("malformed base key %q", req.Base), "")
		return
	}
	cfg := s.requestConfig(strategy, req.ABI, req.Limits)
	key := store.Key(sources, cfg)
	ctx, cancel := s.requestContext(r, req.Limits)
	defer cancel()
	snap, incrInfo, err := s.solveSnapshot(ctx, "analyze", key, req.Base, sources, cfg)
	if err != nil {
		writeError(w, err, key)
		return
	}
	out := reportJSON(key, snap)
	out.Incr = incrInfo
	writeJSON(w, http.StatusOK, out)
}

// handleSession opens (or refreshes) a warm query session. Only the front
// end runs here — no solving — so the endpoint is cheap; the demand engine
// pays per query instead.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, err, "")
		return
	}
	sources, err := resolveSources(req.Sources, req.Corpus)
	if err != nil {
		writeError(w, err, "")
		return
	}
	strategy, err := parseStrategy(req.Strategy)
	if err != nil {
		writeError(w, err, "")
		return
	}
	// Sessions are deliberately limit-free: a session answers exactly, so
	// its key is the content hash without any Limits dimension. The same
	// key therefore also addresses full-solve snapshots of the same
	// limit-free config.
	cfg := pointsto.Config{Strategy: strategy, ABI: req.ABI}
	key := store.Key(sources, cfg)
	// A warm session answers from residency — no admission needed. Only
	// building a new one (front-end work) consumes a slot.
	if sess, ok := s.sessions.get(key); ok {
		writeJSON(w, http.StatusOK, SessionResponse{Key: key, Cached: true, Names: sess.Names()})
		return
	}
	release, err := s.admitSolve(r.Context(), "session", key)
	if err != nil {
		writeError(w, err, key)
		return
	}
	sess, cached, err := s.sessions.getOrCreate(key, sources, cfg)
	release()
	if err != nil {
		writeError(w, err, key)
		return
	}
	writeJSON(w, http.StatusOK, SessionResponse{Key: key, Cached: cached, Names: sess.Names()})
}

// serveQuery answers one form-parameterized query (the GET endpoints).
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, q QueryJSON) {
	ctx, cancel := s.requestContext(r, LimitsJSON{})
	defer cancel()
	res, qerr := s.runQuery(ctx, q)
	if qerr != nil {
		writeJSON(w, qerr.status, qerr.body)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handlePointsTo(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, QueryJSON{Op: OpPointsTo, Key: r.FormValue("key"), Var: r.FormValue("var")})
}

func (s *Server) handleAlias(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, QueryJSON{Op: OpMayAlias, Key: r.FormValue("key"), A: r.FormValue("a"), B: r.FormValue("b")})
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req CompareRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, err, "")
		return
	}
	sources, err := resolveSources(req.Sources, req.Corpus)
	if err != nil {
		writeError(w, err, "")
		return
	}
	ctx, cancel := s.requestContext(r, req.Limits)
	defer cancel()

	resp := CompareResponse{}
	snaps := make(map[string]*export.Snapshot, len(pointsto.Strategies()))
	for _, strategy := range pointsto.Strategies() {
		cfg := s.requestConfig(strategy, req.ABI, req.Limits)
		key := store.Key(sources, cfg)
		snap, _, err := s.solveSnapshot(ctx, "compare", key, "", sources, cfg)
		if err != nil {
			writeError(w, err, key)
			return
		}
		snaps[strategy.String()] = snap
		resp.Results = append(resp.Results, reportJSON(key, snap))
	}

	// Diff: every variable whose points-to set differs across instances.
	// Vars are keyed identically in every snapshot (same front end run),
	// so iterate one snapshot's names.
	names := snaps[pointsto.CIS.String()].SortedVarNames()
	for _, name := range names {
		sets := make(map[string][]string, len(snaps))
		differs := false
		var first []string
		for i, strategy := range pointsto.Strategies() {
			targets := snaps[strategy.String()].Vars[name]
			sets[strategy.String()] = targets
			if i == 0 {
				first = targets
			} else if !equalStrings(first, targets) {
				differs = true
			}
		}
		if !differs {
			continue
		}
		if len(resp.Diffs) >= maxCompareDiffs {
			resp.Truncated = true
			break
		}
		resp.Diffs = append(resp.Diffs, CompareDiff{Var: name, Sets: sets})
	}
	writeJSON(w, http.StatusOK, resp)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	varz := Varz{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Cache:         s.cfg.Store.Stats(),
		Demand:        s.sessions.varz(),
		Solver: SolverVarz{
			Solves:          s.solves.Load(),
			Steps:           s.solveSteps.Load(),
			Incomplete:      s.solveIncomplete.Load(),
			Rejected:        s.solveRejected.Load(),
			Canceled:        s.solveCanceled.Load(),
			InFlightNS:      s.solveNS.Load(),
			SCCsFound:       s.solveSCCs.Load(),
			CellsMerged:     s.solveMerged.Load(),
			Waves:           s.solveWaves.Load(),
			TraversalsSaved: s.solveTravSaved.Load(),
			PrepClasses:     s.solvePrepClasses.Load(),
			PrepCollapsed:   s.solvePrepCollapsed.Load(),
			InternSets:      s.solveInternSets.Load(),
			InternBytes:     s.solveInternBytes.Load(),
		},
		Endpoints: make(map[string]EndpointJSON, len(s.endpoints)),
		Incr: IncrVarz{
			Hits:      s.incrHits.Load(),
			Misses:    s.incrMisses.Load(),
			Fallbacks: s.incrFallbacks.Load(),
		},
		Admission: AdmissionVarz{
			CostKeys:  s.costs.keys(),
			Endpoints: make(map[string]AdmissionEndpointVarz, len(s.admissions)),
		},
		Chaos: s.cfg.Chaos.Stats(),
	}
	varz.Incr.Graphs, varz.Incr.Stored, varz.Incr.Evicted = s.graphs.counts()
	for name, a := range s.admissions {
		varz.Admission.Endpoints[name] = a.varz()
	}
	names := make([]string, 0, len(s.endpoints))
	for name := range s.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ep := s.endpoints[name]
		varz.Endpoints[name] = EndpointJSON{
			Requests:  ep.requests.Load(),
			Errors4xx: ep.errors4xx.Load(),
			Errors5xx: ep.errors5xx.Load(),
			Canceled:  ep.canceled.Load(),
			Latency:   ep.latency.snapshot(),
		}
	}
	writeJSON(w, http.StatusOK, varz)
}

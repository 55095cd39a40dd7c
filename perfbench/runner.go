package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/export"
	"repro/internal/server"
	"repro/internal/store"
)

// cacheBytes is ptrserved's default -cache-bytes.
const cacheBytes = 256 << 20

// runner drives one in-process ptrserved (server.New(...).Handler(), no
// socket) with a single closed-loop client and checks every answer.
type runner struct {
	b        *bench
	h        http.Handler
	st       *store.Store
	spillDir string
	nonce    *rand.Rand
	serial   int
	last     map[int]string // session_edit: chain → key of its latest analyze
	visits   map[*input]int
	allocs   []metrics.Sample

	// corrupt, when set, may alter a response body before it is checked
	// (the benchmark's own tests use it to prove wrong answers count).
	corrupt func(body []byte) []byte

	stats runStats
}

// runStats accumulates one measured loop.
type runStats struct {
	requests   int             // workload request units completed
	latency    []time.Duration // per request unit
	queryLat   []time.Duration // per query
	attempted  int             // HTTP calls issued
	failed     int             // non-200 or wrong answers
	analyzes   int
	spillBytes int64
	allocBytes uint64        // heap bytes allocated inside ServeHTTP
	peakRSS    float64       // VmHWM (MiB) when the bench's rssAt-th request completed
	served     time.Duration // time inside ServeHTTP
	wall       time.Duration // loop wall minus the client's own time
	firstErr   error
}

// newRunner builds a fresh server over a fresh store spilling into dir.
func newRunner(b *bench, dir string, phase uint64) (*runner, error) {
	st, err := store.New(cacheBytes, dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &runner{
		b:        b,
		h:        server.New(server.Config{Store: st}).Handler(),
		st:       st,
		spillDir: dir,
		nonce:    rand.New(rand.NewPCG(b.seed, phase)),
		last:     make(map[int]string),
		visits:   make(map[*input]int),
		allocs:   []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}, nil
}

// uniqueSources appends a seeded, never-repeating comment line to the last
// source, so every request misses the cache without changing the analysis
// (appending keeps every line number, and so every object name, intact).
func uniqueSources(in *input, seed uint64, serial int, nonce *rand.Rand) []server.SourceJSON {
	out := append([]server.SourceJSON(nil), in.sources...)
	out[len(out)-1].Text += fmt.Sprintf("\n// perfbench seed %d request %d nonce %016x\n", seed, serial, nonce.Uint64())
	return out
}

func (r *runner) uniqueSources(in *input) []server.SourceJSON {
	r.serial++
	return uniqueSources(in, r.b.seed, r.serial, r.nonce)
}

// call issues one in-process HTTP request and times ServeHTTP alone.
func (r *runner) call(method, target string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	metrics.Read(r.allocs)
	a0 := r.allocs[0].Value.Uint64()
	start := time.Now()
	r.h.ServeHTTP(rec, req)
	d := time.Since(start)
	metrics.Read(r.allocs)
	r.stats.allocBytes += r.allocs[0].Value.Uint64() - a0
	r.stats.served += d
	r.stats.attempted++
	out := rec.Body.Bytes()
	if r.corrupt != nil {
		out = r.corrupt(out)
	}
	return rec.Code, out, d
}

func (r *runner) fail(err error) {
	r.stats.failed++
	if r.stats.firstErr == nil {
		r.stats.firstErr = err
	}
}

// warm runs every distinct input once (session_edit: opens every chain),
// so lazy initialisation and first-use costs land in set-up.
func (r *runner) warm() {
	if r.b.workload == wSessionEdit {
		r.openChains()
		return
	}
	for i := range r.b.order {
		r.step(i)
	}
}

// openChains sends every session_edit chain's cold opening analyze.
func (r *runner) openChains() {
	for c, idx := range r.b.openers {
		if key, _ := r.analyze(r.b.inputs[idx], ""); key != "" {
			r.last[c] = key
		}
	}
}

// step runs request unit i of the workload and returns its latency.
func (r *runner) step(i int) time.Duration {
	in := r.b.inputs[r.b.order[i%len(r.b.order)]]
	queries := in.queriesFor(r.visits[in])
	r.visits[in]++
	if r.b.workload != wSessionEdit {
		key, d := r.analyze(in, "")
		if key != "" {
			for _, q := range queries {
				r.query(in, key, q)
			}
		}
		return d
	}
	srcs := r.uniqueSources(in)
	key, d := r.session(in, srcs)
	if key != "" {
		for _, q := range queries {
			d += r.query(in, key, q)
		}
	}
	akey, ad := r.analyzeSources(in, srcs, r.last[in.chain])
	if akey != "" {
		r.last[in.chain] = akey
	}
	return d + ad
}

func (r *runner) analyze(in *input, base string) (string, time.Duration) {
	return r.analyzeSources(in, r.uniqueSources(in), base)
}

// analyzeSources POSTs /v1/analyze and checks the report and the cached
// snapshot it addresses against the reference. Returns "" on failure.
func (r *runner) analyzeSources(in *input, srcs []server.SourceJSON, base string) (string, time.Duration) {
	body, err := json.Marshal(server.AnalyzeRequest{Sources: srcs, Strategy: in.strategy.String(), Base: base})
	if err != nil {
		r.fail(err)
		return "", 0
	}
	code, resp, d := r.call(http.MethodPost, "/v1/analyze", body)
	r.stats.analyzes++
	var rep server.ReportJSON
	if err := decode(code, resp, &rep); err != nil {
		r.fail(fmt.Errorf("analyze %s: %w", in.name, err))
		return "", d
	}
	if fi, err := os.Stat(filepath.Join(r.spillDir, rep.Key+".json")); err == nil {
		r.stats.spillBytes += fi.Size()
	}
	snap, ok := r.st.Get(rep.Key)
	if !ok {
		r.fail(fmt.Errorf("analyze %s: key %s not cached", in.name, rep.Key))
		return "", d
	}
	if err := checkReport(in.exp, rep, snap); err != nil {
		r.fail(fmt.Errorf("analyze %s: %w", in.name, err))
		return "", d
	}
	return rep.Key, d
}

// session POSTs /v1/session and checks the returned name list.
func (r *runner) session(in *input, srcs []server.SourceJSON) (string, time.Duration) {
	body, err := json.Marshal(server.SessionRequest{Sources: srcs, Strategy: in.strategy.String()})
	if err != nil {
		r.fail(err)
		return "", 0
	}
	code, resp, d := r.call(http.MethodPost, "/v1/session", body)
	var sr server.SessionResponse
	if err := decode(code, resp, &sr); err != nil {
		r.fail(fmt.Errorf("session %s: %w", in.name, err))
		return "", d
	}
	if !sort.StringsAreSorted(sr.Names) || digest(sr.Names) != in.exp.names {
		r.fail(fmt.Errorf("session %s: name list differs from the reference", in.name))
		return "", d
	}
	return sr.Key, d
}

// query issues one GET /v1/pointsto or /v1/alias and checks the answer.
func (r *runner) query(in *input, key string, q query) time.Duration {
	v := url.Values{"key": {key}}
	target := "/v1/pointsto?"
	if q.op == server.OpPointsTo {
		v.Set("var", q.a)
	} else {
		target = "/v1/alias?"
		v.Set("a", q.a)
		v.Set("b", q.b)
	}
	code, resp, d := r.call(http.MethodGet, target+v.Encode(), nil)
	r.stats.queryLat = append(r.stats.queryLat, d)
	var res server.QueryResultJSON
	if err := decode(code, resp, &res); err != nil {
		r.fail(fmt.Errorf("%s %s: %w", q.op, in.name, err))
		return d
	}
	if err := checkQuery(q, res.Targets, res.MayAlias); err != nil {
		r.fail(fmt.Errorf("%s %s: %w", q.op, in.name, err))
	}
	return d
}

func decode(code int, body []byte, dst any) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", code, body)
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return nil
}

// checkReport compares an analyze answer (its summary and the snapshot it
// addresses) with the reference.
func checkReport(exp *expected, rep server.ReportJSON, snap *export.Snapshot) error {
	if rep.Incomplete {
		return fmt.Errorf("incomplete report")
	}
	if rep.TotalFacts != exp.totalFacts || snap.TotalFacts != exp.totalFacts {
		return fmt.Errorf("total facts %d (snapshot %d), reference %d", rep.TotalFacts, snap.TotalFacts, exp.totalFacts)
	}
	return checkVars(exp, snap.Vars)
}

// checkVars compares every name's targets with the reference digests.
func checkVars(exp *expected, vars map[string][]string) error {
	if len(vars) != len(exp.vars) {
		return fmt.Errorf("%d names, reference %d", len(vars), len(exp.vars))
	}
	for name, targets := range vars {
		want, ok := exp.vars[name]
		if !ok {
			return fmt.Errorf("name %q not in the reference", name)
		}
		if digest(targets) != want {
			return fmt.Errorf("points-to set of %q differs from the reference", name)
		}
	}
	return nil
}

// checkQuery compares one query answer with its reference answer.
func checkQuery(q query, targets []string, alias *bool) error {
	if q.op == server.OpPointsTo {
		if digest(targets) != digest(q.targets) {
			return fmt.Errorf("pointsto(%s) = %v, reference %v", q.a, targets, q.targets)
		}
		return nil
	}
	if alias == nil || *alias != q.alias {
		return fmt.Errorf("alias(%s, %s) differs from the reference %v", q.a, q.b, q.alias)
	}
	return nil
}

// loop runs request units back to back for d and records the run.
// Everything in a step outside ServeHTTP is the client building bodies and
// checking answers, so it is kept out of the wall that throughput divides.
func (r *runner) loop(d time.Duration) {
	r.stats = runStats{}
	var client time.Duration
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		t0, served := time.Now(), r.stats.served
		r.stats.latency = append(r.stats.latency, r.step(i))
		r.stats.requests++
		if r.stats.requests == r.b.rssAt {
			r.stats.peakRSS = peakRSSMB()
		}
		client += time.Since(t0) - (r.stats.served - served)
	}
	r.stats.wall = time.Since(start) - client
	if r.stats.peakRSS == 0 {
		r.stats.peakRSS = peakRSSMB()
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cc/ast"
	"repro/internal/cc/layout"
	"repro/internal/cc/parser"
	"repro/internal/cc/pp"
	"repro/internal/cc/sema"
	"repro/internal/cc/types"
	"repro/internal/export"
	"repro/internal/ir"
	"repro/internal/libsum"
	"repro/internal/server"
	"repro/internal/store"
	"repro/pointsto"
)

// Residency bounds of ptrserved's defaults (server.Config MaxGraphs and
// MaxSessions left zero), mirrored so the replay retains what the server
// retains.
const (
	maxGraphs   = 64
	maxSessions = 32
)

// replayer re-issues the workload's requests through each layer's public
// functions, in the order server.solveSnapshot calls them, recording a span
// around every call. It never goes through the HTTP handler: the handler's
// own work (decoding the request body, encoding the response) is redone
// here with the server's public wire types, and lands in the server
// layer's self time.
type replayer struct {
	b        *bench
	t        *tracer
	st       *store.Store // no spill directory: spills are replayed explicitly
	spillDir string
	nonce    *rand.Rand
	serial   int
	graphs   *lru[*pointsto.Graph]
	sessions *lru[*pointsto.Session]
	last     map[int]string
	visits   map[*input]int

	attempted int // replayed HTTP calls
	failed    int
	firstErr  error
}

func newReplayer(b *bench, spillDir string) (*replayer, error) {
	st, err := store.New(cacheBytes, "")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	return &replayer{
		b:        b,
		t:        newTracer(),
		st:       st,
		spillDir: spillDir,
		nonce:    rand.New(rand.NewPCG(b.seed, phaseReplay)),
		graphs:   newLRU[*pointsto.Graph](maxGraphs),
		sessions: newLRU[*pointsto.Session](maxSessions),
		last:     make(map[int]string),
		visits:   make(map[*input]int),
	}, nil
}

func (p *replayer) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

func (p *replayer) uniqueSources(in *input) []server.SourceJSON {
	p.serial++
	return uniqueSources(in, p.b.seed, p.serial, p.nonce)
}

// openChains replays the session_edit chain openers, then starts a fresh
// trace so the openers stay out of the ledger.
func (p *replayer) openChains() {
	for c, idx := range p.b.openers {
		in := p.b.inputs[idx]
		if key := p.analyze(in, p.uniqueSources(in), ""); key != "" {
			p.last[c] = key
		}
	}
	p.t = newTracer()
}

// loop replays request units 1, 2, ... of the workload order for d.
func (p *replayer) loop(d time.Duration) {
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		p.t.req = i + 1
		p.step(i)
	}
}

// step replays request unit i: what runner.step sends, span by span, then
// the side replay of the front end's stages on the same program.
func (p *replayer) step(i int) {
	in := p.b.inputs[p.b.order[i%len(p.b.order)]]
	queries := in.queriesFor(p.visits[in])
	p.visits[in]++
	srcs := p.uniqueSources(in)
	if p.b.workload != wSessionEdit {
		if key := p.analyze(in, srcs, ""); key != "" {
			for _, q := range queries {
				p.snapshotQuery(key, q)
			}
		}
	} else {
		if sess := p.session(in, srcs); sess != nil {
			for _, q := range queries {
				p.demandQuery(sess, q)
			}
			st := sess.Stats()
			if in.exp.cells > 0 {
				p.t.count("core.demand_cells_ratio", float64(st.CellsVisited)/float64(in.exp.cells))
			}
			p.t.count("core.demand_fallbacks", float64(st.Fallbacks))
		}
		if key := p.analyze(in, srcs, p.last[in.chain]); key != "" {
			p.last[in.chain] = key
		}
	}
	p.splitFrontend(srcs)
}

// respond encodes a response body as the handler's writeJSON does.
func respond(body any) {
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	enc.Encode(body) // io.Discard never fails
}

func facadeSources(srcs []server.SourceJSON) []pointsto.Source {
	out := make([]pointsto.Source, len(srcs))
	for i, s := range srcs {
		out[i] = pointsto.Source{Name: s.Name, Text: s.Text}
	}
	return out
}

// analyze replays one POST /v1/analyze: key, peek, the singleflight solve
// (front end or warm resume, solve, graph capture, snapshot), then the
// spill's encode and atomic write. Returns "" on failure.
func (p *replayer) analyze(in *input, srcs []server.SourceJSON, base string) string {
	body, err := json.Marshal(server.AnalyzeRequest{Sources: srcs, Strategy: in.strategy.String(), Base: base})
	if err != nil {
		p.fail(err)
		return ""
	}
	t := p.t
	root := t.begin(0, "server.analyze")
	p.attempted++
	var req server.AnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.end(root)
		p.fail(err)
		return ""
	}
	sources := facadeSources(req.Sources)
	cfg := pointsto.Config{Strategy: in.strategy}

	id := t.begin(root, "store.key")
	key := store.Key(sources, cfg)
	t.end(id)
	id = t.begin(root, "store.peek")
	_, hit := p.st.Peek(key)
	t.end(id)
	t.count("store.miss", boolf(!hit))

	var graph *pointsto.Graph
	if req.Base != "" {
		graph, _ = p.graphs.get(req.Base)
		t.count("incr.based", 1)
	}
	ctx := context.Background()
	gos := t.begin(root, "store.get_or_solve")
	snap, _, err := p.st.GetOrSolve(ctx, key, func(sctx context.Context) (*export.Snapshot, error) {
		// Runs on the store's flight goroutine while this one waits, so
		// the tracer is never touched concurrently.
		var sess *pointsto.Session
		var err error
		if graph != nil {
			id := t.begin(gos, "incr.resume")
			var ri *pointsto.ResumeInfo
			sess, ri, err = pointsto.ResumeSession(sctx, graph, sources, cfg)
			t.end(id)
			if err == nil {
				t.count("incr.resumed", boolf(ri.Outcome == "resumed"))
				t.count("incr.facts_seeded", float64(ri.FactsSeeded))
				t.count("incr.stmts_skipped", float64(ri.StmtsSkipped))
			}
		} else {
			id := t.begin(gos, "frontend.load")
			sess, err = pointsto.NewSession(sources, cfg)
			t.end(id)
		}
		if err != nil {
			return nil, err
		}
		id := t.begin(gos, "core.solve")
		rep, err := sess.Report(sctx)
		t.end(id)
		if err != nil {
			return nil, err
		}
		ss := rep.SolverStats()
		t.count("core.steps", float64(rep.Steps()))
		t.count("core.facts", float64(rep.TotalFacts()))
		t.count("core.waves", float64(ss.Waves))
		t.count("core.prep_collapsed", float64(ss.PrepCollapsed))
		t.count("core.intern_sets", float64(ss.InternSets))
		if rep.Incomplete() == nil && cfg.Resumable() {
			id = t.begin(gos, "incr.capture")
			g, gerr := sess.Graph(sctx)
			t.end(id)
			if gerr == nil {
				p.graphs.put(key, g)
			}
		}
		id = t.begin(gos, "export.snapshot")
		snap := export.NewSnapshot(rep, cfg.ABI)
		t.end(id)
		return snap, nil
	})
	t.end(gos)
	if err != nil {
		t.end(root)
		p.fail(fmt.Errorf("replay analyze %s: %w", in.name, err))
		return ""
	}

	id = t.begin(root, "export.encode")
	var buf bytes.Buffer
	err = export.WriteSnapshotChecked(&buf, snap)
	t.end(id)
	t.count("export.snapshot_bytes", float64(buf.Len()))
	if err == nil {
		id = t.begin(root, "store.spill")
		err = store.AtomicWriteFile(filepath.Join(p.spillDir, key+".json"), 0o644, func(w io.Writer) error {
			_, err := w.Write(buf.Bytes())
			return err
		})
		t.end(id)
		if err == nil {
			t.count("store.spill_bytes", float64(buf.Len()))
		}
	}
	respond(server.ReportJSON{Key: key, Strategy: snap.Strategy, ABI: snap.ABI, TotalFacts: snap.TotalFacts,
		DerefSites: snap.DerefSites, AvgDerefSize: snap.AvgDerefSize, Steps: snap.Steps, DurationNS: snap.DurationNS})
	t.end(root)

	if err != nil {
		p.fail(fmt.Errorf("replay spill %s: %w", in.name, err))
		return ""
	}
	if snap.Incomplete != nil || snap.TotalFacts != in.exp.totalFacts {
		p.fail(fmt.Errorf("replay analyze %s: %d facts, reference %d", in.name, snap.TotalFacts, in.exp.totalFacts))
		return ""
	}
	if err := checkVars(in.exp, snap.Vars); err != nil {
		p.fail(fmt.Errorf("replay analyze %s: %w", in.name, err))
		return ""
	}
	return key
}

// session replays one POST /v1/session: key, then the front end.
func (p *replayer) session(in *input, srcs []server.SourceJSON) *pointsto.Session {
	body, err := json.Marshal(server.SessionRequest{Sources: srcs, Strategy: in.strategy.String()})
	if err != nil {
		p.fail(err)
		return nil
	}
	t := p.t
	root := t.begin(0, "server.session")
	p.attempted++
	var req server.SessionRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.end(root)
		p.fail(err)
		return nil
	}
	sources := facadeSources(req.Sources)
	cfg := pointsto.Config{Strategy: in.strategy}
	id := t.begin(root, "store.key")
	key := store.Key(sources, cfg)
	t.end(id)
	id = t.begin(root, "frontend.load")
	sess, err := pointsto.NewSession(sources, cfg)
	t.end(id)
	if err != nil {
		t.end(root)
		p.fail(fmt.Errorf("replay session %s: %w", in.name, err))
		return nil
	}
	p.sessions.put(key, sess)
	names := sess.Names()
	respond(server.SessionResponse{Key: key, Names: names})
	t.end(root)
	if digest(names) != in.exp.names {
		p.fail(fmt.Errorf("replay session %s: name list differs from the reference", in.name))
		return nil
	}
	return sess
}

// demandQuery replays a query answered by a warm session's demand engine.
func (p *replayer) demandQuery(sess *pointsto.Session, q query) {
	t := p.t
	root := t.begin(0, "server.query")
	p.attempted++
	id := t.begin(root, "core.demand")
	var targets []string
	var alias bool
	var err error
	if q.op == server.OpPointsTo {
		targets, err = sess.PointsTo(context.Background(), q.a)
	} else {
		alias, err = sess.MayAlias(context.Background(), q.a, q.b)
	}
	t.end(id)
	respond(server.QueryResultJSON{Op: q.op, Var: q.a, Targets: targets, MayAlias: &alias})
	t.end(root)
	p.checkQuery(q, targets, alias, err)
}

// snapshotQuery replays a query answered from the cached snapshot (no
// session is resident for a cold workload's key).
func (p *replayer) snapshotQuery(key string, q query) {
	t := p.t
	root := t.begin(0, "server.query")
	p.attempted++
	id := t.begin(root, "store.get")
	snap, ok := p.st.Get(key)
	t.end(id)
	var targets []string
	var alias bool
	if ok {
		id = t.begin(root, "export.query")
		if q.op == server.OpPointsTo {
			targets = snap.PointsTo(q.a)
		} else {
			alias = snap.MayAlias(q.a, q.b)
		}
		t.end(id)
	}
	respond(server.QueryResultJSON{Op: q.op, Var: q.a, Targets: targets, MayAlias: &alias})
	t.end(root)
	if !ok {
		p.fail(fmt.Errorf("replay query: key %s not cached", key))
		return
	}
	p.checkQuery(q, targets, alias, nil)
}

func (p *replayer) checkQuery(q query, targets []string, alias bool, err error) {
	if err == nil {
		err = checkQuery(q, targets, &alias)
	}
	if err != nil {
		p.fail(fmt.Errorf("replay %s: %w", q.op, err))
	}
}

// splitFrontend replays frontend.Load's stages one by one on the request's
// program, outside the request's spans: preprocess and parse per unit,
// then sema and IR lowering, with frontend.Load's default options.
func (p *replayer) splitFrontend(srcs []server.SourceJSON) {
	t := p.t
	root := t.begin(0, "frontend.split")
	defer t.end(root)
	univ := types.NewUniverse()
	lay := layout.New(layout.LP64)
	// The corpus and generated programs include only built-in system
	// headers; in-memory units are the only user includes resolvable.
	include := func(name string, system bool, from string) (string, []byte, error) {
		for _, s := range srcs {
			if s.Name == name {
				return name, []byte(s.Text), nil
			}
		}
		return "", nil, fmt.Errorf("include %q not found", name)
	}
	var files []*ast.File
	for _, src := range srcs {
		id := t.begin(root, "frontend.pp")
		toks, err := pp.New(pp.Config{Include: include}).Process(src.Name, []byte(src.Text))
		t.end(id)
		if err != nil {
			p.fail(fmt.Errorf("replay preprocess: %w", err))
			return
		}
		t.count("frontend.tokens", float64(len(toks)))
		id = t.begin(root, "frontend.parse")
		f, err := parser.Parse(src.Name, toks, parser.Config{Universe: univ, Layout: lay})
		t.end(id)
		if err != nil {
			p.fail(fmt.Errorf("replay parse: %w", err))
			return
		}
		files = append(files, f)
	}
	id := t.begin(root, "frontend.sema")
	prog, err := sema.Analyze(files, univ, lay)
	t.end(id)
	if err != nil {
		p.fail(fmt.Errorf("replay sema: %w", err))
		return
	}
	id = t.begin(root, "frontend.lower")
	irProg := ir.Build(prog, ir.Config{Summarizer: libsum.New()})
	t.end(id)
	t.count("frontend.ir_stmts", float64(len(irProg.Stmts)))
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// lru is a small least-recently-used map, standing in for the server's
// graph and session caches.
type lru[V any] struct {
	max   int
	order []string
	m     map[string]V
}

func newLRU[V any](max int) *lru[V] { return &lru[V]{max: max, m: make(map[string]V)} }

func (c *lru[V]) touch(k string) {
	for i, o := range c.order {
		if o == k {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.order = append(c.order, k)
}

func (c *lru[V]) get(k string) (V, bool) {
	v, ok := c.m[k]
	if ok {
		c.touch(k)
	}
	return v, ok
}

func (c *lru[V]) put(k string, v V) {
	c.m[k] = v
	c.touch(k)
	if len(c.order) > c.max {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
}

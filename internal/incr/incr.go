// Package incr is the incremental re-analysis subsystem: it keeps one
// completed analysis run as a resumable constraint graph, diffs a
// re-submitted program against it at function granularity, and re-solves
// only the slice the edit can reach.
//
// The pipeline has three stages:
//
//  1. Partitioned fingerprinting (fingerprint.go): every function — plus a
//     pseudo-unit for global initializers — is keyed by a canonical,
//     position-independent encoding of its IR. Diff reduces an edit to the
//     set of added/removed/changed units.
//  2. Graph capture and the warm state (incr.go, mirror.go): Capture keeps
//     a completed solve as it is — the front-end result and the
//     core.Result, nothing copied. The first Resume against a graph builds
//     its warm state once: the unit fingerprints, per-cell fact lists in
//     first-interned order, and the statement mirror (per-statement copy
//     edges, counter contributions and the taint dependency index).
//  3. Delta solve (match.go, mirror.go, resume.go): Resume matches the old
//     program's objects onto the new one, retracts the constraints of
//     changed/removed units by computing the taint closure of the cells
//     they wrote, seeds a fresh solver with the surviving facts, and runs
//     the ordinary fixpoint to re-convergence. Any situation the taint
//     proof does not cover falls back to a cold solve — counted, never
//     wrong.
//
// The correctness contract is exact: a resumed solve produces byte-identical
// results (fact dumps, TotalFacts, Figure-3 counters) to a cold solve of the
// edited program. The solver's single-fire watcher replay (core.Analyze*)
// makes those counters a pure function of (program, strategy), which is what
// lets a warm schedule reproduce them.
package incr

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cc/layout"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/metrics"
)

// Config pins everything that affects a graph's identity: the strategy and
// ABI plus every option that changes solver output. A Resume under a config
// differing from the captured one falls back to a cold solve.
//
// Deliberately absent: timeouts, parallelism and demand budgets (they never
// change an answer), NoPrepass/TrackPeakMem (the offline prepass and set
// interner are a cold-solve-only optimization — warm resumes always run
// without them, so the knob cannot differentiate graphs), resource Limits
// (an incomplete solve is not resumable, so graphs are only captured from
// unlimited runs) and FlagMisuse (misuse records are a whole-run observable
// the delta path cannot reproduce; the facade never captures graphs for
// flagging configs).
type Config struct {
	// Strategy names the analysis instance ("common-initial-seq" when
	// empty); ABI names the layout ("lp64" when empty).
	Strategy string `json:"strategy"`
	ABI      string `json:"abi"`

	ModelMainArgs      bool `json:"model_main_args,omitempty"`
	NoLibSummaries     bool `json:"no_lib_summaries,omitempty"`
	CloneAllocWrappers bool `json:"clone_alloc_wrappers,omitempty"`
	NoPtrArithSmear    bool `json:"no_ptr_arith_smear,omitempty"`
}

// Resolved returns the config with the default strategy/ABI names filled
// in — the identity a captured graph actually carries.
func (c Config) Resolved() Config { return c.withDefaults() }

// withDefaults resolves the empty strategy/ABI names so that configs
// compare by meaning, not spelling.
func (c Config) withDefaults() Config {
	if c.Strategy == "" {
		c.Strategy = "common-initial-seq"
	}
	if c.ABI == "" {
		c.ABI = "lp64"
	}
	return c
}

// frontend maps the config onto front-end options.
func (c Config) frontend() (frontend.Options, error) {
	var abi *layout.ABI
	switch c.withDefaults().ABI {
	case "lp64":
		abi = layout.LP64
	case "ilp32":
		abi = layout.ILP32
	case "packed1":
		abi = layout.Packed1
	default:
		return frontend.Options{}, fmt.Errorf("incr: unknown ABI %q (want lp64, ilp32 or packed1)", c.ABI)
	}
	return frontend.Options{
		ABI:                abi,
		ModelMainArgs:      c.ModelMainArgs,
		NoLibSummaries:     c.NoLibSummaries,
		CloneAllocWrappers: c.CloneAllocWrappers,
	}, nil
}

// coreOptions maps the config onto solver options. Limits stay zero: the
// incremental path only handles complete solves.
func (c Config) coreOptions() core.Options {
	return core.Options{NoPtrArithSmear: c.NoPtrArithSmear}
}

// strategy builds a fresh instance for the config over the given layout
// engine.
func (c Config) strategy(lay *layout.Engine) (core.Strategy, error) {
	s := metrics.NewStrategy(c.withDefaults().Strategy, lay)
	if s == nil {
		return nil, fmt.Errorf("incr: unknown strategy %q", c.Strategy)
	}
	return s, nil
}

// Graph is a completed solve held for resuming: the front-end result and
// the core.Result it was captured from, plus the warm state Resume needs,
// built once on the first Resume against the graph. Capture itself does no
// work beyond its two checks, so registering every finished solve as a
// future base costs two pointers.
//
// The warm state is derived from what the graph holds: the unit
// fingerprints come from the captured IR, the per-cell fact lists from the
// result's DenseState (merged members carry their representative's full
// union, so the union-find condensation needs no copy of its own), and the
// statement mirror (mirror.go) reconstructs the solved graph's watcher and
// copy edges and its per-statement counter contributions from those
// lists — the solver's single-fire replay makes them a pure function of
// (program, final sets, strategy).
type Graph struct {
	cfg    Config
	res    *frontend.Result
	result *core.Result

	warmOnce sync.Once
	warm     *warmState
	warmErr  error
}

// warmState is everything Resume reads from a graph beyond the captured
// program itself.
type warmState struct {
	units map[string]string // unit name → fingerprint
	// order lists the cells holding facts in dense-ID (first-interned)
	// order, which keeps resume seeding deterministic; facts maps each to
	// its final set, in the same ID order.
	order []core.Cell
	facts map[core.Cell][]core.Cell
	art   *artifacts
}

// warmed returns the graph's warm state, building it on first use: the
// fingerprints, the fact lists and the mirror artifacts (one replay of the
// statements against the final sets, roughly the cost of the original
// solve). It is paid once per resident graph, not per Resume. Safe for
// concurrent use; the Graph must not be copied.
func (g *Graph) warmed() (*warmState, error) {
	g.warmOnce.Do(func() {
		// The mirror dirties its strategy's recorder and memo, so it gets
		// a throwaway instance over the captured layout.
		strat, err := g.cfg.strategy(layout.New(g.res.Layout.ABI()))
		if err != nil {
			g.warmErr = err
			return
		}
		w := &warmState{units: fingerprints(g.res.IR), facts: make(map[core.Cell][]core.Cell)}
		cells, redirect, sets := g.result.DenseState()
		for i, c := range cells {
			set := sets[i]
			if redirect != nil {
				set = sets[redirect[i]]
			}
			if len(set) == 0 {
				continue
			}
			targets := make([]core.Cell, len(set))
			for j, id := range set {
				targets[j] = cells[id]
			}
			w.order = append(w.order, c)
			w.facts[c] = targets
		}
		w.art = buildArtifacts(g.res.IR, strat, w.facts)
		g.warm = w
	})
	return g.warm, g.warmErr
}

// Capture registers a completed solve as a resumable Graph. The result
// must have reached fixpoint and must have been produced under cfg over
// res; violations are errors, not fallbacks, because a miscaptured graph
// would poison every later Resume. The graph keeps res and result, which
// must not change afterwards.
func Capture(cfg Config, res *frontend.Result, result *core.Result) (*Graph, error) {
	cfg = cfg.withDefaults()
	if result.Incomplete != nil {
		return nil, fmt.Errorf("incr: cannot capture an incomplete solve (%s)", result.Incomplete.Reason)
	}
	if name := result.Strategy.Name(); name != cfg.Strategy {
		return nil, fmt.Errorf("incr: result solved under %q, config says %q", name, cfg.Strategy)
	}
	return &Graph{cfg: cfg, res: res, result: result}, nil
}

// Analyze is the subsystem's cold path: front end plus dense solve under
// cfg. Resume falls back to it whenever a retraction cannot be proven
// safe, and tests use it as the oracle.
func Analyze(ctx context.Context, sources []frontend.Source, cfg Config) (*frontend.Result, *core.Result, error) {
	fopts, err := cfg.frontend()
	if err != nil {
		return nil, nil, err
	}
	res, err := frontend.Load(sources, fopts)
	if err != nil {
		return nil, nil, err
	}
	strat, err := cfg.strategy(res.Layout)
	if err != nil {
		return nil, nil, err
	}
	return res, core.AnalyzeContext(ctx, res.IR, strat, cfg.coreOptions()), nil
}

// Solve is Analyze followed by Capture: one call takes sources to a
// resumable Graph plus its result.
func Solve(ctx context.Context, sources []frontend.Source, cfg Config) (*Graph, *core.Result, error) {
	res, result, err := Analyze(ctx, sources, cfg)
	if err != nil {
		return nil, nil, err
	}
	if result.Incomplete != nil {
		return nil, result, fmt.Errorf("incr: solve stopped early (%s)", result.Incomplete.Reason)
	}
	g, err := Capture(cfg, res, result)
	if err != nil {
		return nil, result, err
	}
	return g, result, nil
}

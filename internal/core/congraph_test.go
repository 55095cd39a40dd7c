package core_test

// Tests for the constraint-graph layer (congraph.go): online cycle
// elimination must be observable only through WaveStats — fact dumps,
// TotalFacts, AvgDerefSetSize and the Figure-3 counters stay byte-identical
// to the map-based reference solver, and resource limits keep meaning what
// they say when cells merge.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/metrics"
)

// mutualSrc builds two pointer variables copied into each other — the
// smallest possible copy-edge cycle — plus distinct address seeds on each
// side so both directions must propagate.
func mutualSrc() string {
	return `
int a, b;
int *p, *q;
void f(void) {
	p = &a;
	q = &b;
	p = q;
	q = p;
}
`
}

// exactStrategies returns the strategy instances that emit only exact
// (Size == 0) copy edges — the ones eligible for cycle elimination.
func exactStrategies() map[string]core.Strategy {
	return map[string]core.Strategy{
		"collapse-always":    core.NewCollapseAlways(),
		"collapse-on-cast":   core.NewCollapseOnCast(),
		"common-initial-seq": core.NewCIS(),
	}
}

// targets renders the points-to set of the named object as "{a, b}".
func targets(t *testing.T, res *core.Result, prog *ir.Program, name string) string {
	t.Helper()
	var names []string
	for _, c := range res.PointsTo(objByName(t, prog, name), nil).Sorted() {
		names = append(names, c.Obj.Name)
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ", ") + "}"
}

// noPrep pins a solve to the online cycle layer: the offline prepass would
// collapse these hand-built cycles before detectCycles ever sees them (its
// own coverage lives in prepass_test.go and the differential suites).
var noPrep = core.Options{NoPrepass: true}

func TestCycleCollapseMutualCopy(t *testing.T) {
	r := loadIR(t, mutualSrc(), nil)
	for name, strat := range exactStrategies() {
		res := core.AnalyzeWith(r.IR, strat, noPrep)
		if res.Incomplete != nil {
			t.Fatalf("%s: incomplete: %v", name, res.Incomplete)
		}
		if res.Wave.SCCsFound < 1 || res.Wave.CellsMerged < 1 {
			t.Errorf("%s: p<->q cycle not collapsed: %+v", name, res.Wave)
		}
		// Both members of the collapsed cycle observe the converged set.
		pSet := targets(t, res, r.IR, "p")
		qSet := targets(t, res, r.IR, "q")
		if pSet != "{a, b}" || qSet != "{a, b}" {
			t.Errorf("%s: p=%s q=%s, want {a, b} for both", name, pSet, qSet)
		}
	}
}

func TestCycleCollapseRing(t *testing.T) {
	r := loadIR(t, ringSrc(50), nil)
	for name, strat := range exactStrategies() {
		res := core.AnalyzeWith(r.IR, strat, noPrep)
		if res.Incomplete != nil {
			t.Fatalf("%s: incomplete: %v", name, res.Incomplete)
		}
		// The 50-element ring is one SCC: 49 cells fold into the
		// representative.
		if res.Wave.SCCsFound == 0 {
			t.Errorf("%s: ring SCC not found: %+v", name, res.Wave)
		}
		if res.Wave.CellsMerged < 49 {
			t.Errorf("%s: merged %d cells, want >= 49", name, res.Wave.CellsMerged)
		}
		if res.Wave.Waves == 0 {
			t.Errorf("%s: no waves recorded", name)
		}
		if res.Wave.FactCrossings < res.Wave.EdgeBatches {
			t.Errorf("%s: crossings %d < batches %d", name,
				res.Wave.FactCrossings, res.Wave.EdgeBatches)
		}
	}
}

// The layer is an observable-preserving optimization: the dump, the fact
// count and the dereference metric agree with the map-based reference
// solver.
func TestCycleElimMatchesReference(t *testing.T) {
	srcs := map[string]string{
		"mutual": mutualSrc(),
		"ring":   ringSrc(40),
	}
	for sname, src := range srcs {
		r := loadIR(t, src, nil)
		for name, strat := range exactStrategies() {
			label := sname + "/" + name
			on := core.AnalyzeWith(r.IR, strat, noPrep)
			ref := core.AnalyzeReference(r.IR, strat, core.Options{})
			if on.Wave.CellsMerged == 0 {
				t.Errorf("%s: default run collapsed nothing", label)
			}
			if dOn, dRef := factDump(on), factDump(ref); dOn != dRef {
				t.Errorf("%s: dump differs from reference solver\ndense:\n%s\nref:\n%s", label, dOn, dRef)
			}
			if on.TotalFacts() != ref.TotalFacts() {
				t.Errorf("%s: TotalFacts dense=%d ref=%d", label, on.TotalFacts(), ref.TotalFacts())
			}
			if on.AvgDerefSetSize() != ref.AvgDerefSetSize() {
				t.Errorf("%s: AvgDerefSetSize dense=%v ref=%v",
					label, on.AvgDerefSetSize(), ref.AvgDerefSetSize())
			}
		}
	}
}

// The Offsets instance emits Size != 0 range edges, so it is excluded from
// collapse by construction: its runs must never merge cells.
func TestOffsetsExcludedFromCollapse(t *testing.T) {
	r := loadIR(t, ringSrc(30), nil)
	res := core.Analyze(r.IR, core.NewOffsets(r.Layout))
	if res.Incomplete != nil {
		t.Fatalf("incomplete: %v", res.Incomplete)
	}
	if res.Wave.SCCsFound != 0 || res.Wave.CellsMerged != 0 {
		t.Errorf("offsets run collapsed cells: %+v", res.Wave)
	}
}

// Collapsing the ring must batch edge traversals: fewer batches cross the
// condensed graph than the facts they carry — the headline win of the
// layer.
func TestWaveSchedulerSavesTraversals(t *testing.T) {
	r := loadIR(t, ringSrc(100), nil)
	on := core.AnalyzeWith(r.IR, core.NewCollapseAlways(), noPrep)
	if on.Wave.EdgeBatches >= on.Wave.FactCrossings {
		t.Errorf("cycle elim did not batch traversals: batches=%d crossings=%d",
			on.Wave.EdgeBatches, on.Wave.FactCrossings)
	}
	if on.Wave.TraversalsSaved() == 0 {
		t.Errorf("no traversals saved on a 100-ring: %+v", on.Wave)
	}
}

// Limits leave the schedule alone: a run under limits that never trip
// drains, merges and counts exactly like the unlimited run. The unlimited
// side runs without the prepass, which stays off under Limits.
func TestLimitsKeepWaves(t *testing.T) {
	huge := core.Options{Limits: core.Limits{MaxSteps: 1 << 30, MaxFacts: 1 << 30, MaxCells: 1 << 30}}
	progs := map[string]*frontend.Result{"ring60": loadIR(t, ringSrc(60), nil)}
	names := corpus.SortedByGroup()
	if testing.Short() {
		names = names[:4]
	}
	for _, name := range names {
		src, err := corpus.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		if progs[name], err = frontend.Load(src, frontend.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for pname, res := range progs {
		for _, sname := range metrics.StrategyNames {
			if sname == "offsets" {
				continue
			}
			limStrat := metrics.NewStrategy(sname, res.Layout)
			lim := core.AnalyzeWith(res.IR, limStrat, huge)
			freeStrat := metrics.NewStrategy(sname, res.Layout)
			free := core.AnalyzeWith(res.IR, freeStrat, noPrep)
			label := pname + "/" + sname
			if lim.Incomplete != nil || free.Incomplete != nil {
				t.Fatalf("%s: incomplete: limited=%v unlimited=%v", label, lim.Incomplete, free.Incomplete)
			}
			if d1, d2 := factDump(lim), factDump(free); d1 != d2 {
				t.Errorf("%s: dump differs under limits:\n--- limited ---\n%s--- unlimited ---\n%s", label, d1, d2)
			}
			if r1, r2 := recorderLine(limStrat.Recorder()), recorderLine(freeStrat.Recorder()); r1 != r2 {
				t.Errorf("%s: Figure-3 counters limited(%s) unlimited(%s)", label, r1, r2)
			}
			if lim.Steps != free.Steps || lim.Wave != free.Wave {
				t.Errorf("%s: schedule differs under limits: steps %d vs %d, waves %+v vs %+v",
					label, lim.Steps, free.Steps, lim.Wave, free.Wave)
			}
		}
	}
}

// Every MaxFacts bound holds, cycle merges included: the run shows at most
// MaxFacts facts, all of them in the fixpoint; every bound up to the full
// count stops the run, and a bound above it lets the run complete. The ring
// trips inside merged cycles; the copy chain delivers its facts through
// batched edge propagation.
func TestMaxFactsSweep(t *testing.T) {
	for sname, src := range map[string]string{"ring": ringSrc(100), "chain": chainSrc(12)} {
		r := loadIR(t, src, nil)
		for name, strat := range strategies(r.Layout) {
			label := sname + "/" + name
			full := core.Analyze(r.IR, strat)
			n, fullFacts := full.TotalFacts(), facts(full)
			for limit := 1; limit <= n+1; limit++ {
				res := core.AnalyzeWith(r.IR, strategies(r.Layout)[name],
					core.Options{Limits: core.Limits{MaxFacts: limit}})
				if got := res.TotalFacts(); got > limit {
					t.Fatalf("%s (MaxFacts=%d): %d facts recorded", label, limit, got)
				}
				if (res.Incomplete == nil) != (limit > n) {
					t.Fatalf("%s (MaxFacts=%d, full count %d): incomplete = %v", label, limit, n, res.Incomplete)
				}
				for c, set := range facts(res) {
					for tgt := range set {
						if !fullFacts[c].Has(tgt) {
							t.Fatalf("%s (MaxFacts=%d): partial fact %s -> %s not in fixpoint", label, limit, c, tgt)
						}
					}
				}
			}
		}
	}
}

// countdownCtx reports cancellation after its Err method has been polled a
// fixed number of times — a deterministic way to stop the solver mid-wave.
type countdownCtx struct {
	context.Context
	polls int
}

func (c *countdownCtx) Err() error {
	if c.polls <= 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// A wave cancelled mid-flight must still yield a sound partial report: every
// recorded fact is in the reference solver's fixpoint, and the reference run
// (acting as the resume oracle) is a superset that completes the answer.
func TestWaveCancellationSoundPartial(t *testing.T) {
	r := loadIR(t, ringSrc(120), nil)
	for name, strat := range exactStrategies() {
		full := core.AnalyzeReference(r.IR, strat, core.Options{})
		if full.Incomplete != nil {
			t.Fatalf("%s: reference run incomplete", name)
		}
		fullFacts := facts(full)
		stopped := false
		for polls := 1; polls <= 6; polls++ {
			ctx := &countdownCtx{Context: context.Background(), polls: polls}
			lim := core.AnalyzeContext(ctx, r.IR, strat, core.Options{})
			if lim.Incomplete == nil {
				continue // solved before the countdown expired
			}
			stopped = true
			if !lim.Incomplete.Canceled() {
				t.Fatalf("%s (polls=%d): reason = %s, want canceled",
					name, polls, lim.Incomplete.Reason)
			}
			for c, set := range facts(lim) {
				for tgt := range set {
					if !fullFacts[c].Has(tgt) {
						t.Errorf("%s (polls=%d): partial fact %s -> %s not in reference fixpoint",
							name, polls, c, tgt)
					}
				}
			}
		}
		if !stopped {
			t.Errorf("%s: no countdown produced a cancelled wave", name)
		}
	}
}

// Stop.Facts and Stop.Cells reach clients (the /v1/analyze stop object), so
// they must describe the partial Result they come with: a member merged
// into a cycle shows its representative's set, and counts that way.
func TestStopCountsMatchResult(t *testing.T) {
	r := loadIR(t, ringSrc(120), nil)
	for oname, opts := range map[string]core.Options{"default": {}, "noprep": noPrep} {
		for name := range exactStrategies() {
			stopped := false
			for polls := 1; polls <= 6; polls++ {
				ctx := &countdownCtx{Context: context.Background(), polls: polls}
				res := core.AnalyzeContext(ctx, r.IR, exactStrategies()[name], opts)
				stop := res.Incomplete
				if stop == nil {
					continue
				}
				stopped = true
				if cells := len(facts(res)); stop.Facts != res.TotalFacts() || stop.Cells != cells {
					t.Errorf("%s/%s (polls=%d): stop reports %d facts in %d cells, result shows %d in %d",
						oname, name, polls, stop.Facts, stop.Cells, res.TotalFacts(), cells)
				}
			}
			if !stopped {
				t.Errorf("%s/%s: no countdown stopped the run", oname, name)
			}
		}
	}
}

// Exercising cascading merges: several disjoint cycles bridged by chains, so
// a detection pass collapses multiple SCCs in one sweep and the compacted
// adjacency stays correct.
func TestMultipleSCCs(t *testing.T) {
	var b strings.Builder
	b.WriteString("int t0, t1, t2;\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&b, "int *p%d;\n", i)
	}
	b.WriteString("void f(void) {\n")
	// Three 4-cycles, each seeded with a distinct target, chained so facts
	// flow 0-block -> 1-block -> 2-block.
	for blk := 0; blk < 3; blk++ {
		base := blk * 4
		fmt.Fprintf(&b, "\tp%d = &t%d;\n", base, blk)
		for i := 0; i < 4; i++ {
			fmt.Fprintf(&b, "\tp%d = p%d;\n", base+(i+1)%4, base+i)
		}
		if blk > 0 {
			fmt.Fprintf(&b, "\tp%d = p%d;\n", base, base-4)
		}
	}
	b.WriteString("}\n")

	r := loadIR(t, b.String(), nil)
	for name, strat := range exactStrategies() {
		res := core.AnalyzeWith(r.IR, strat, noPrep)
		ref := core.AnalyzeReference(r.IR, strat, core.Options{})
		if res.Wave.SCCsFound < 3 {
			t.Errorf("%s: found %d SCCs, want >= 3", name, res.Wave.SCCsFound)
		}
		if d, rd := factDump(res), factDump(ref); d != rd {
			t.Errorf("%s: dump differs from reference\ndense:\n%s\nref:\n%s", name, d, rd)
		}
		// The last block sees every upstream seed.
		if got := targets(t, res, r.IR, "p8"); got != "{t0, t1, t2}" {
			t.Errorf("%s: p8 -> %s, want {t0, t1, t2}", name, got)
		}
	}
}

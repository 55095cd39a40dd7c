package core_test

// Differential test for the dense CellID/Bits solver rewrite: AnalyzeWith
// (dense) and AnalyzeReference (the retained map-based solver, refsolver.go)
// must agree exactly — same fact dump, same Figure-6 fact count, same
// Figure-4 dereference sizes, same Figure-3 logical-call instrumentation —
// on every corpus program, under all four strategies, with memoization both
// on and off.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/metrics"
)

func recorderLine(r *core.Recorder) string {
	return fmt.Sprintf("lk=%d lkS=%d lkM=%d rs=%d rsS=%d rsM=%d",
		r.LookupCalls, r.LookupStructs, r.LookupMismatches,
		r.ResolveCalls, r.ResolveStructs, r.ResolveMismatches)
}

func TestDenseSolverMatchesReference(t *testing.T) {
	names := corpus.SortedByGroup()
	if testing.Short() {
		names = names[:4]
	}
	for _, name := range names {
		src, err := corpus.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := frontend.Load(src, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sname := range metrics.StrategyNames {
			for _, memo := range []bool{true, false} {
				label := fmt.Sprintf("%s/%s/memo=%v", name, sname, memo)
				t.Run(label, func(t *testing.T) {
					mkStrat := func() core.Strategy {
						s := metrics.NewStrategy(sname, res.Layout)
						if m, ok := s.(core.Memoizer); ok {
							m.SetMemoization(memo)
						}
						return s
					}

					denseStrat := mkStrat()
					dense := core.Analyze(res.IR, denseStrat)
					refStrat := mkStrat()
					ref := core.AnalyzeReference(res.IR, refStrat, core.Options{})

					if dense.Incomplete != nil || ref.Incomplete != nil {
						t.Fatalf("unexpected incomplete run: dense=%v ref=%v",
							dense.Incomplete, ref.Incomplete)
					}
					if d, r := dense.TotalFacts(), ref.TotalFacts(); d != r {
						t.Errorf("TotalFacts: dense=%d ref=%d", d, r)
					}
					if d, r := dense.AvgDerefSetSize(), ref.AvgDerefSetSize(); d != r {
						t.Errorf("AvgDerefSetSize: dense=%v ref=%v", d, r)
					}
					if d, r := factDump(dense), factDump(ref); d != r {
						t.Errorf("fact dump mismatch:\n--- dense ---\n%s--- reference ---\n%s", d, r)
					}
					if d, r := recorderLine(denseStrat.Recorder()), recorderLine(refStrat.Recorder()); d != r {
						t.Errorf("Figure-3 counters: dense(%s) ref(%s)", d, r)
					}
				})
			}
		}
	}
}

package core_test

// Corpus-wide differential for the prepass + interner pair: the default
// solve (prepass on), the NoPrepass ablation, and the map-based reference
// solver must agree byte-for-byte on every observable — fact dumps,
// TotalFacts, AvgDerefSetSize, and the Figure-3 instrumentation — on every
// corpus program under all four strategies. The parallel variant runs the
// same comparison with every program × strategy solve concurrent, all
// sharing one loaded IR per program, so `go test -race` checks that the
// prepass and the interner keep their state per solve — the property the
// AnalyzeAll batch pool relies on.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/metrics"
)

func TestPrepassDifferentialCorpus(t *testing.T) {
	prepassDifferential(t, false)
}

func TestPrepassDifferentialCorpusParallel(t *testing.T) {
	prepassDifferential(t, true)
}

func prepassDifferential(t *testing.T, parallel bool) {
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
			t.Run(name+"/"+sname, func(t *testing.T) {
				if parallel {
					t.Parallel()
				}
				onStrat := metrics.NewStrategy(sname, res.Layout)
				on := core.Analyze(res.IR, onStrat)

				offStrat := metrics.NewStrategy(sname, res.Layout)
				off := core.AnalyzeWith(res.IR, offStrat, core.Options{NoPrepass: true})

				refStrat := metrics.NewStrategy(sname, res.Layout)
				ref := core.AnalyzeReference(res.IR, refStrat, core.Options{})

				if on.Incomplete != nil || off.Incomplete != nil || ref.Incomplete != nil {
					t.Fatalf("unexpected incomplete run: on=%v off=%v ref=%v",
						on.Incomplete, off.Incomplete, ref.Incomplete)
				}
				if off.Wave.PrepClasses != 0 || off.Wave.PrepCollapsed != 0 ||
					off.Wave.InternEpochs != 0 || off.Wave.InternSets != 0 {
					t.Errorf("ablation still ran the prepass/interner: %+v", off.Wave)
				}
				if a, b, c := on.TotalFacts(), off.TotalFacts(), ref.TotalFacts(); a != b || a != c {
					t.Errorf("TotalFacts: on=%d off=%d ref=%d", a, b, c)
				}
				if a, b, c := on.AvgDerefSetSize(), off.AvgDerefSetSize(), ref.AvgDerefSetSize(); a != b || a != c {
					t.Errorf("AvgDerefSetSize: on=%v off=%v ref=%v", a, b, c)
				}
				dOn, dOff, dRef := factDump(on), factDump(off), factDump(ref)
				if dOn != dOff {
					t.Errorf("fact dump differs under NoPrepass:\n--- on ---\n%s--- off ---\n%s", dOn, dOff)
				}
				if dOn != dRef {
					t.Errorf("fact dump differs from reference:\n--- on ---\n%s--- ref ---\n%s", dOn, dRef)
				}
				rOn, rOff, rRef := recorderLine(onStrat.Recorder()),
					recorderLine(offStrat.Recorder()), recorderLine(refStrat.Recorder())
				if rOn != rOff || rOn != rRef {
					t.Errorf("Figure-3 counters: on(%s) off(%s) ref(%s)", rOn, rOff, rRef)
				}
			})
		}
	}
}

// The interner must never change what a Result answers after the solve
// either: mutating-by-query is impossible (Result is read-only), but merged
// members must still answer through the representative after internFinal
// freed their pre-merge storage.
func TestInternFinalKeepsMergedMembersAnswering(t *testing.T) {
	r := loadIR(t, chainSrc(12), nil)
	for name, strat := range exactStrategies() {
		res := core.Analyze(r.IR, strat)
		if res.Wave.PrepCollapsed == 0 {
			t.Fatalf("%s: chain not collapsed, test is vacuous", name)
		}
		for i := 0; i < 12; i++ {
			v := fmt.Sprintf("p%d", i)
			if got := targets(t, res, r.IR, v); got != "{a}" {
				t.Errorf("%s: %s -> %s after internFinal, want {a}", name, v, got)
			}
		}
	}
}

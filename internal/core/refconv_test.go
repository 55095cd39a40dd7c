package core

import (
	"maps"
	"testing"
	"time"

	"repro/internal/cc/layout"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/ir"
)

// TestReferenceConversionFaithful checks the oracle's hand-off: the Result
// AnalyzeReference returns must hold exactly the refSolver's final map.
// Both sides are read without Bits or Rendering — the raw map directly,
// the Result through its cell queries and TotalFacts — on every corpus
// program under every strategy, and on MaxSteps-bounded partial runs.
func TestReferenceConversionFaithful(t *testing.T) {
	for _, name := range corpus.SortedByGroup() {
		src, err := corpus.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := frontend.Load(src, frontend.Options{ABI: layout.LP64})
		if err != nil {
			t.Fatal(err)
		}
		strategies := []Strategy{NewCollapseAlways(), NewCollapseOnCast(), NewCIS(), NewOffsets(res.Layout)}
		for _, strat := range strategies {
			t.Run(name+"/"+strat.Name(), func(t *testing.T) {
				checkReferenceConversion(t, res.IR, strat, Options{})
			})
		}
	}
	res, err := frontend.Load(mustSource(t, "compiler"), frontend.Options{ABI: layout.LP64})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{NewCIS(), NewOffsets(res.Layout)} {
		t.Run("compiler/"+strat.Name()+"/max-steps", func(t *testing.T) {
			checkReferenceConversion(t, res.IR, strat, Options{Limits: Limits{MaxSteps: 3}})
		})
	}
}

func mustSource(t *testing.T, name string) []frontend.Source {
	t.Helper()
	src, err := corpus.Source(name)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func checkReferenceConversion(t *testing.T, prog *ir.Program, strat Strategy, opts Options) {
	t.Helper()
	s := newRefSolver(prog, strat, opts)
	s.run()
	if (opts.Limits.MaxSteps > 0) != (s.stop != nil) {
		t.Fatalf("stop = %v under limits %+v", s.stop, opts.Limits)
	}
	raw := s.pts
	facts := 0
	for _, set := range raw {
		facts += len(set)
	}
	if facts == 0 {
		t.Fatal("the oracle derived no facts")
	}
	res := s.finish(time.Now())
	if got := res.TotalFacts(); got != facts {
		t.Errorf("TotalFacts = %d, the oracle's map holds %d", got, facts)
	}
	for c, want := range raw {
		if len(want) == 0 {
			continue
		}
		if got := res.pointsToCell(c); !maps.Equal(got, want) {
			t.Errorf("%s: converted set %v, the oracle's %v", c, got.Sorted(), want.Sorted())
		}
		// Base cells are reachable through the public query as well.
		if strat.Normalize(c.Obj, nil) == c {
			if got := res.PointsTo(c.Obj, nil); !maps.Equal(got, want) {
				t.Errorf("PointsTo(%s) = %v, the oracle's %v", c.Obj.Name, got.Sorted(), want.Sorted())
			}
		}
	}
}

package core_test

// Unit tests for the offline constraint-reduction prepass (prepass.go):
// hash-value numbering must fold copy chains, equal-signature siblings and
// statically-visible cycles before the fixpoint, while staying invisible in
// every observable except WaveStats — the corpus-wide guarantee lives in
// prepass_diff_test.go.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// chainSrc builds one seeded copy chain: p0 = &a, then p1 = p0, ...,
// p<n-1> = p<n-2>. Every link converges to {a}, so HVN folds the whole
// chain into one class.
func chainSrc(n int) string {
	var b strings.Builder
	b.WriteString("int a;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "int *p%d;\n", i)
	}
	b.WriteString("void f(void) {\n\tp0 = &a;\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "\tp%d = p%d;\n", i, i-1)
	}
	b.WriteString("}\n")
	return b.String()
}

func TestPrepassCollapsesCopyChain(t *testing.T) {
	const n = 20
	r := loadIR(t, chainSrc(n), nil)
	for name, strat := range exactStrategies() {
		res := core.Analyze(r.IR, strat)
		if res.Incomplete != nil {
			t.Fatalf("%s: incomplete: %v", name, res.Incomplete)
		}
		// The chain inherits p0's value number link by link, so all n cells
		// land in one class and the online SCC pass has nothing left to find.
		if res.Wave.PrepCollapsed < n-1 {
			t.Errorf("%s: collapsed %d cells, want >= %d: %+v",
				name, res.Wave.PrepCollapsed, n-1, res.Wave)
		}
		if res.Wave.PrepChains < n-1 {
			t.Errorf("%s: chain rule fired %d times, want >= %d",
				name, res.Wave.PrepChains, n-1)
		}
		if res.Wave.SCCsFound != 0 {
			t.Errorf("%s: online pass found SCCs in a chain: %+v", name, res.Wave)
		}
		for i := 0; i < n; i++ {
			if got := targets(t, res, r.IR, fmt.Sprintf("p%d", i)); got != "{a}" {
				t.Errorf("%s: p%d -> %s, want {a}", name, i, got)
			}
		}
	}
}

func TestPrepassMergesEqualSignatures(t *testing.T) {
	src := `
int a;
int *p, *q, *r;
void f(void) {
	p = &a;
	q = &a;
	r = &a;
}
`
	r := loadIR(t, src, nil)
	for name, strat := range exactStrategies() {
		res := core.Analyze(r.IR, strat)
		// p, q, r share the signature (directs = {a}, no in-edges): one
		// hash-consed class, two cells folded into the representative.
		if res.Wave.PrepClasses < 1 || res.Wave.PrepCollapsed < 2 {
			t.Errorf("%s: equal signatures not merged: %+v", name, res.Wave)
		}
		for _, v := range []string{"p", "q", "r"} {
			if got := targets(t, res, r.IR, v); got != "{a}" {
				t.Errorf("%s: %s -> %s, want {a}", name, v, got)
			}
		}
	}
}

func TestPrepassCollapsesStaticCycle(t *testing.T) {
	r := loadIR(t, mutualSrc(), nil)
	for name, strat := range exactStrategies() {
		res := core.Analyze(r.IR, strat)
		// The p<->q cycle is statically visible, so the prepass folds it and
		// detectCycles never fires; the answer is the converged union.
		if res.Wave.PrepCollapsed < 1 {
			t.Errorf("%s: static cycle not collapsed offline: %+v", name, res.Wave)
		}
		if res.Wave.SCCsFound != 0 {
			t.Errorf("%s: cycle left for the online pass: %+v", name, res.Wave)
		}
		if p, q := targets(t, res, r.IR, "p"), targets(t, res, r.IR, "q"); p != "{a, b}" || q != "{a, b}" {
			t.Errorf("%s: p=%s q=%s, want {a, b} for both", name, p, q)
		}
	}
}

func TestPrepassFoldsProvablyEmptyCells(t *testing.T) {
	src := `
int a;
int *dead0, *dead1, *dead2;
int *live;
void f(void) {
	live = &a;
	dead1 = dead0;
	dead2 = dead1;
}
`
	r := loadIR(t, src, nil)
	for name, strat := range exactStrategies() {
		res := core.Analyze(r.IR, strat)
		if res.Incomplete != nil {
			t.Fatalf("%s: incomplete: %v", name, res.Incomplete)
		}
		// dead0 has no facts and no in-edges (vn 0); dropping vn-0 sources
		// from signatures pulls dead1/dead2 into the same provably-empty
		// class, and the merge is observationally silent: all stay empty.
		for _, v := range []string{"dead0", "dead1", "dead2"} {
			if got := targets(t, res, r.IR, v); got != "{}" {
				t.Errorf("%s: %s -> %s, want {}", name, v, got)
			}
		}
		if got := targets(t, res, r.IR, "live"); got != "{a}" {
			t.Errorf("%s: live -> %s, want {a}", name, got)
		}
	}
}

func TestPrepassInheritsThroughIndirectSource(t *testing.T) {
	src := `
int a;
int *x;
int **p;
int *q, *r, *s;
void f(void) {
	x = &a;
	p = &x;
	q = *p;
	r = q;
	s = r;
}
`
	rr := loadIR(t, src, nil)
	for name, strat := range exactStrategies() {
		res := core.Analyze(rr.IR, strat)
		// q is a load destination (indirect), but r and s hang off it by
		// exact copies: the lazy unique number registers q as the founding
		// member, so the chain collapses INTO q.
		if res.Wave.PrepCollapsed < 2 || res.Wave.PrepChains < 2 {
			t.Errorf("%s: chain behind load not folded: %+v", name, res.Wave)
		}
		for _, v := range []string{"q", "r", "s"} {
			if got := targets(t, res, rr.IR, v); got != "{a}" {
				t.Errorf("%s: %s -> %s, want {a}", name, v, got)
			}
		}
	}
}

func TestPrepassDisabledUnderLimitsAndOffsets(t *testing.T) {
	r := loadIR(t, chainSrc(10), nil)
	lim := core.AnalyzeWith(r.IR, core.NewCIS(),
		core.Options{Limits: core.Limits{MaxSteps: 1 << 20}})
	if lim.Wave.PrepClasses != 0 || lim.Wave.PrepCollapsed != 0 || lim.Wave.InternEpochs != 0 {
		t.Errorf("limited run engaged the prepass/interner: %+v", lim.Wave)
	}
	off := core.Analyze(r.IR, core.NewOffsets(r.Layout))
	if off.Wave.PrepClasses != 0 || off.Wave.PrepCollapsed != 0 {
		t.Errorf("offsets run engaged the prepass: %+v", off.Wave)
	}
}

// The prep_* counters are a pure function of (program, strategy): repeat
// runs must report identical numbers, which is what lets the regression
// baseline pin them.
func TestPrepassCountersDeterministic(t *testing.T) {
	r := loadIR(t, chainSrc(30), nil)
	for name, strat := range exactStrategies() {
		first := core.Analyze(r.IR, strat)
		repeat := core.Analyze(r.IR, strat)
		if repeat.Wave.PrepClasses != first.Wave.PrepClasses ||
			repeat.Wave.PrepCollapsed != first.Wave.PrepCollapsed ||
			repeat.Wave.PrepChains != first.Wave.PrepChains {
			t.Errorf("%s: prep counters drifted: first %+v, repeat %+v",
				name, first.Wave, repeat.Wave)
		}
	}
}

package incr_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/incr"
	"repro/internal/metrics"
)

// factDump renders a result from its DenseState exactly like the
// dense-vs-reference differential test in internal/core, so
// "byte-identical" means the same thing across both oracles.
func factDump(res *core.Result) string {
	cells, redirect, sets := res.DenseState()
	m := make(map[core.Cell]core.CellSet)
	for i, c := range cells {
		ids := sets[i]
		if redirect != nil {
			ids = sets[redirect[i]]
		}
		for _, id := range ids {
			if m[c] == nil {
				m[c] = make(core.CellSet)
			}
			m[c].Add(cells[id])
		}
	}
	keys := make(core.CellSet, len(m))
	for c := range m {
		keys.Add(c)
	}
	var sb strings.Builder
	for _, c := range keys.Sorted() {
		sb.WriteString(c.String())
		sb.WriteString(" -> {")
		for i, t := range m[c].Sorted() {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(t.String())
		}
		sb.WriteString("}\n")
	}
	return sb.String()
}

func recorderLine(r *core.Recorder) string {
	return fmt.Sprintf("lk=%d lkS=%d lkM=%d rs=%d rsS=%d rsM=%d",
		r.LookupCalls, r.LookupStructs, r.LookupMismatches,
		r.ResolveCalls, r.ResolveStructs, r.ResolveMismatches)
}

// requireIdentical pins warm ≡ cold on every observable the repo's other
// differential tests pin: fact dumps, TotalFacts, and Fig-3 counters.
func requireIdentical(t *testing.T, label string, warm, cold *core.Result) {
	t.Helper()
	if got, want := warm.TotalFacts(), cold.TotalFacts(); got != want {
		t.Errorf("%s: TotalFacts %d, cold solve says %d", label, got, want)
	}
	if got, want := recorderLine(warm.Strategy.Recorder()), recorderLine(cold.Strategy.Recorder()); got != want {
		t.Errorf("%s: counters diverge\nwarm: %s\ncold: %s", label, got, want)
	}
	if got, want := factDump(warm), factDump(cold); got != want {
		t.Errorf("%s: fact dumps diverge\nwarm:\n%s\ncold:\n%s", label, got, want)
	}
}

// TestResumeMatchesColdSolve is the subsystem's correctness bar: for
// generated single-function edits over the whole corpus, under all four
// strategies, a warm Resume must be byte-identical to a cold solve of the
// edited program.
func TestResumeMatchesColdSolve(t *testing.T) {
	ctx := context.Background()
	names := corpus.SortedByGroup()
	editsPer := 3
	if testing.Short() {
		names = names[:4]
		editsPer = 2
	}
	resumed := 0
	for _, name := range names {
		src, err := corpus.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		edits := corpus.Edits(src[0].Text, 7, editsPer)
		if len(edits) == 0 {
			t.Logf("%s: no viable edits, skipping", name)
			continue
		}
		for _, sname := range metrics.StrategyNames {
			cfg := incr.Config{Strategy: sname}
			g, _, err := incr.Solve(ctx, src, cfg)
			if err != nil {
				t.Fatalf("%s/%s: solve: %v", name, sname, err)
			}
			for _, ed := range edits {
				label := fmt.Sprintf("%s/%s/%s", name, sname, ed)
				newSrc := []frontend.Source{{Name: src[0].Name, Text: ed.Text}}
				_, warm, stats, err := incr.Resume(ctx, g, newSrc, cfg)
				if err != nil {
					t.Fatalf("%s: resume: %v", label, err)
				}
				_, cold, err := incr.Analyze(ctx, newSrc, cfg)
				if err != nil {
					t.Fatalf("%s: cold: %v", label, err)
				}
				if stats.Outcome == "resumed" {
					resumed++
				} else {
					t.Logf("%s: fell back (%s)", label, stats.FallbackReason)
				}
				requireIdentical(t, label, warm, cold)
			}
		}
	}
	if resumed == 0 {
		t.Fatal("no edit resumed warm: the delta path never engaged")
	}
}

// TestConcurrentResume: several requests may resume the same resident
// graph at once, and the first of them builds its warm state. Eight
// goroutines resume one fresh Graph over the same edit, under every
// strategy; every result must match the cold solve.
func TestConcurrentResume(t *testing.T) {
	ctx := context.Background()
	src, err := corpus.Source("compiler")
	if err != nil {
		t.Fatal(err)
	}
	edits := corpus.Edits(src[0].Text, 7, 1)
	if len(edits) == 0 {
		t.Fatal("no viable edit of compiler")
	}
	newSrc := []frontend.Source{{Name: src[0].Name, Text: edits[0].Text}}
	for _, sname := range metrics.StrategyNames {
		cfg := incr.Config{Strategy: sname}
		g, _, err := incr.Solve(ctx, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, cold, err := incr.Analyze(ctx, newSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const n = 8
		warm := make([]*core.Result, n)
		stats := make([]*incr.Stats, n)
		errs := make([]error, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				_, warm[i], stats[i], errs[i] = incr.Resume(ctx, g, newSrc, cfg)
			}(i)
		}
		close(start)
		wg.Wait()
		for i := 0; i < n; i++ {
			label := fmt.Sprintf("%s/resume %d", sname, i)
			if errs[i] != nil {
				t.Fatalf("%s: %v", label, errs[i])
			}
			if stats[i].Outcome != "resumed" {
				t.Errorf("%s: fell back (%s)", label, stats[i].FallbackReason)
			}
			requireIdentical(t, label, warm[i], cold)
		}
	}
}

// TestResumeIdenticalProgram re-submits the unedited program: everything
// seeds, nothing retracts, and the answer still matches.
func TestResumeIdenticalProgram(t *testing.T) {
	ctx := context.Background()
	src, err := corpus.Source("compiler")
	if err != nil {
		t.Fatal(err)
	}
	for _, sname := range metrics.StrategyNames {
		cfg := incr.Config{Strategy: sname}
		g, coldRes, err := incr.Solve(ctx, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, warm, stats, err := incr.Resume(ctx, g, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Outcome != "resumed" || stats.StmtsRetracted != 0 {
			t.Fatalf("%s: want clean resume, got %+v", sname, stats)
		}
		if stats.CellsSeeded == 0 {
			t.Fatalf("%s: nothing seeded on identical resubmit", sname)
		}
		requireIdentical(t, sname, warm, coldRes)
	}
}

// TestResumeConfigMismatchFallsBack pins the never-wrong contract: a config
// the graph was not captured under falls back to a cold solve under the
// REQUESTED config.
func TestResumeConfigMismatchFallsBack(t *testing.T) {
	ctx := context.Background()
	src, err := corpus.Source("anagram")
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := incr.Solve(ctx, src, incr.Config{Strategy: "common-initial-seq"})
	if err != nil {
		t.Fatal(err)
	}
	other := incr.Config{Strategy: "collapse-always"}
	_, warm, stats, err := incr.Resume(ctx, g, src, other)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Outcome != "cold" || stats.FallbackReason != "config-mismatch" {
		t.Fatalf("want config-mismatch fallback, got %+v", stats)
	}
	_, cold, err := incr.Analyze(ctx, src, other)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "fallback", warm, cold)
}

// TestDiffAlphaEquivalence: renaming a local and shifting lines does not
// change any fingerprint; editing one function changes exactly that unit;
// editing a struct body touches every unit using the type.
func TestDiffAlphaEquivalence(t *testing.T) {
	base := `
struct node { struct node *next; int *val; };
int g;
struct node n1, n2;
void link(struct node *a, struct node *b) { a->next = b; }
void setval(struct node *a) { a->val = &g; }
int main() { link(&n1, &n2); setval(&n1); return 0; }
`
	load := func(text string) *frontend.Result {
		res, err := frontend.Load([]frontend.Source{{Name: "t.c", Text: text}}, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	old := load(base)

	renamed := strings.ReplaceAll(base, "struct node *a", "\n\nstruct node *renamed_ptr")
	renamed = strings.ReplaceAll(renamed, "a->", "renamed_ptr->")
	if d := incr.Diff(old.IR, load(renamed).IR); !d.Empty() {
		t.Errorf("rename+reflow should fingerprint identically, got %v (changed: %v)", d, d.Changed)
	}

	oneFn := strings.Replace(base, "a->val = &g;", "a->val = &g; a->next = a;", 1)
	d := incr.Diff(old.IR, load(oneFn).IR)
	if len(d.Changed) != 1 || d.Changed[0] != "setval" || len(d.Added)+len(d.Removed) != 0 {
		t.Errorf("one-function edit should change exactly [setval], got %+v", d)
	}

	structEdit := strings.Replace(base, "int *val;", "int *val; int extra;", 1)
	d = incr.Diff(old.IR, load(structEdit).IR)
	changed := strings.Join(d.Changed, ",")
	for _, fn := range []string{"link", "setval", "main"} {
		if !strings.Contains(changed, fn) {
			t.Errorf("struct-body edit should reach %s, changed only [%s]", fn, changed)
		}
	}
}

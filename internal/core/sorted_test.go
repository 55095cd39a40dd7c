package core_test

// Display ordering under the dense representation: CellSet.Sorted's
// comparator, and Result.Rendering determinism under concurrent first use —
// including on an Incomplete partial result, where the rendering covers
// whatever fact subset the aborted solver left behind.

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/ir"
)

func TestCellSetSortedOrdering(t *testing.T) {
	oa := &ir.Object{ID: 3, Name: "a"}
	oa2 := &ir.Object{ID: 7, Name: "a"} // same name, later ID
	ob := &ir.Object{ID: 1, Name: "b"}
	want := []core.Cell{
		{Obj: oa},                      // name "a", ID 3, no selector
		{Obj: oa, Off: 0, ByOff: true}, // offset cell sorts after the bare cell
		{Obj: oa, Path: "f"},
		{Obj: oa, Off: 4, ByOff: true},
		{Obj: oa2}, // same name, higher ID
		{Obj: ob},
		{Obj: ob, Off: 8, ByOff: true},
	}
	set := make(core.CellSet, len(want))
	for _, c := range want {
		set.Add(c)
	}
	got := set.Sorted()
	if len(got) != len(want) {
		t.Fatalf("Sorted returned %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Sorted[%d] = %v (%s), want %v (%s)", i, got[i], got[i], want[i], want[i])
		}
	}
}

func loadSorted(t *testing.T) *frontend.Result {
	t.Helper()
	const src = `
struct S { int *a; int *b; } s, t;
int x, y, *p, *q;
int main(void) {
	s.a = &x; s.b = &y;
	t = s;
	p = s.a; q = t.b;
	return 0;
}`
	r, err := frontend.Load([]frontend.Source{{Name: "t.c", Text: src}}, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func dumpRendering(res *core.Result) string {
	var sb strings.Builder
	res.Rendering().Cells(func(_ core.Cell, name string, targets []string) {
		sb.WriteString(name + " -> {" + strings.Join(targets, ", ") + "}\n")
	})
	return sb.String()
}

// TestRenderingDeterministic runs the same analysis repeatedly and reads
// its Rendering from concurrent goroutines: every observation — within a
// result (racing the one-time build) and across independent runs — must be
// identical.
func TestRenderingDeterministic(t *testing.T) {
	r := loadSorted(t)
	var first string
	for run := 0; run < 4; run++ {
		res := core.Analyze(r.IR, core.NewOffsets(r.Layout))
		var wg sync.WaitGroup
		got := make([]string, 8)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = dumpRendering(res)
			}(i)
		}
		wg.Wait()
		for i, g := range got {
			if g != got[0] {
				t.Fatalf("run %d: concurrent renderings disagree:\n[0] %s\n[%d] %s", run, got[0], i, g)
			}
		}
		if run == 0 {
			first = got[0]
			if first == "" {
				t.Fatal("empty rendering")
			}
		} else if got[0] != first {
			t.Fatalf("run %d: renderings differ across runs:\n%s\n%s", run, first, got[0])
		}
	}
}

// TestRenderingIncomplete renders a partial result: an aborted run must
// still expose a stable, deterministic rendering of exactly the facts it
// did derive.
func TestRenderingIncomplete(t *testing.T) {
	r := loadSorted(t)
	opts := core.Options{Limits: core.Limits{MaxFacts: 3}}
	var first string
	for run := 0; run < 4; run++ {
		res := core.AnalyzeWith(r.IR, core.NewOffsets(r.Layout), opts)
		if res.Incomplete == nil {
			t.Fatal("expected an incomplete result under MaxFacts=3")
		}
		if res.Incomplete.Reason != core.StopMaxFacts {
			t.Fatalf("stop reason = %v, want StopMaxFacts", res.Incomplete.Reason)
		}
		if got := res.TotalFacts(); got > 3 {
			t.Fatalf("partial result has %d facts, limit 3", got)
		}
		// The rendering must list exactly the dense state's non-empty
		// cells, with their sets, and repeat identically.
		dump := dumpRendering(res)
		if want := factDump(res); dump != want {
			t.Fatalf("rendering disagrees with the dense state:\n%s\nwant:\n%s", dump, want)
		}
		if d2 := dumpRendering(res); d2 != dump {
			t.Fatalf("repeated renderings differ on the same result")
		}
		if run == 0 {
			first = dump
		} else if dump != first {
			t.Fatalf("run %d: partial renderings differ across runs:\n%s\n%s", run, first, dump)
		}
	}
}

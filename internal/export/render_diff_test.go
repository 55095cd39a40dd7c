package export

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cc/layout"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/pointsto"
)

// sharedNameProgram reuses the name p across three scopes, so its Vars
// entry is the union of three different sets.
const sharedNameProgram = `
int a, b, c;
int *p = &a;
void f(void) { int *p = &b; *p = 1; }
int main(void) {
	int *p = &c;
	f();
	return *p;
}
`

// refCase is one (sources, config) pair of the differential.
type refCase struct {
	name    string
	sources []frontend.Source
	cfg     pointsto.Config
}

// refStrategy builds the core instance a pointsto.Strategy names.
func refStrategy(s pointsto.Strategy, lay *layout.Engine) core.Strategy {
	switch s {
	case pointsto.CollapseAlways:
		return core.NewCollapseAlways()
	case pointsto.CollapseOnCast:
		return core.NewCollapseOnCast()
	case pointsto.Offsets:
		return core.NewOffsets(lay)
	}
	return core.NewCIS()
}

// renderReference renders a result cell by cell through PointsTo,
// DenseState and CellSet.Sorted — independently of the Rendering that
// NewSnapshot reads — into a snapshot's Vars and Sets.
func renderReference(res *frontend.Result, r *core.Result) (map[string][]string, []PointsTo) {
	byName := make(map[string]core.CellSet)
	for _, o := range res.IR.Objects {
		name := o.Name
		if o.Sym != nil && o.Sym.Name != "" {
			name = o.Sym.Name
		}
		if name == "" {
			continue
		}
		set := byName[name]
		if set == nil {
			set = make(core.CellSet)
			byName[name] = set
		}
		for c := range r.PointsTo(o, nil) {
			set.Add(c)
		}
	}
	vars := make(map[string][]string, len(byName))
	for name, set := range byName {
		vars[name] = []string{}
		for _, c := range set.Sorted() {
			vars[name] = append(vars[name], c.String())
		}
	}
	cells, redirect, dense := r.DenseState()
	byCell := make(map[core.Cell]core.CellSet)
	for i, c := range cells {
		ids := dense[i]
		if redirect != nil {
			ids = dense[redirect[i]]
		}
		if c.Obj.IsTemp() || len(ids) == 0 {
			continue
		}
		set := make(core.CellSet, len(ids))
		for _, id := range ids {
			set.Add(cells[id])
		}
		byCell[c] = set
	}
	keys := make(core.CellSet, len(byCell))
	for c := range byCell {
		keys.Add(c)
	}
	var sets []PointsTo
	for _, c := range keys.Sorted() {
		pt := PointsTo{Cell: c.String()}
		for _, t := range byCell[c].Sorted() {
			pt.Targets = append(pt.Targets, t.String())
		}
		sets = append(sets, pt)
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i].Cell < sets[j].Cell })
	return vars, sets
}

// TestSnapshotMatchesReferenceRendering is the rendering differential:
// NewSnapshot's Vars and Sets, built from the dense rendering, must
// deep-equal the cell-by-cell rendering of core.AnalyzeReference on every
// corpus program under every strategy (Offsets under lp64 and ilp32), a
// hub-and-chains program, and a program whose name spans scopes. A
// MaxSteps-bounded run stops short of the fixpoint, so its oracle is the
// same bounded dense run rendered cell by cell.
func TestSnapshotMatchesReferenceRendering(t *testing.T) {
	var cases []refCase
	names := corpus.SortedByGroup()
	if testing.Short() {
		names = names[:4]
	}
	cfgs := []pointsto.Config{
		{Strategy: pointsto.CollapseAlways},
		{Strategy: pointsto.CollapseOnCast},
		{Strategy: pointsto.CIS},
		{Strategy: pointsto.Offsets, ABI: "lp64"},
		{Strategy: pointsto.Offsets, ABI: "ilp32"},
	}
	for _, prog := range names {
		src, err := corpus.Source(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs {
			cases = append(cases, refCase{prog, src, cfg})
		}
	}
	hub := corpus.GenerateLarge(corpus.LargeParams{NChains: 8, ChainLen: 12, NTargets: 32, NFields: 4, CrossEvery: 4, Seed: 7})
	shared := []frontend.Source{{Name: "shared.c", Text: sharedNameProgram}}
	snap := []frontend.Source{{Name: "snap.c", Text: snapshotProgram}}
	cases = append(cases,
		refCase{"hub", hub, pointsto.Config{Strategy: pointsto.CIS}},
		refCase{"shared-name", shared, pointsto.Config{Strategy: pointsto.CIS}},
		refCase{"shared-name", shared, pointsto.Config{Strategy: pointsto.Offsets}},
		refCase{"compiler", mustCorpus(t, "compiler"), pointsto.Config{Strategy: pointsto.CIS, Limits: pointsto.Limits{MaxSteps: 3}}},
		refCase{"snap", snap, pointsto.Config{Strategy: pointsto.Offsets, Limits: pointsto.Limits{MaxSteps: 3}}},
	)

	for _, tc := range cases {
		abi := tc.cfg.ABI
		if abi == "" {
			abi = "lp64"
		}
		label := fmt.Sprintf("%s/%s/%s", tc.name, tc.cfg.Strategy, abi)
		if tc.cfg.Limits.MaxSteps > 0 {
			label += "/max-steps"
		}
		t.Run(label, func(t *testing.T) {
			psrc := make([]pointsto.Source, len(tc.sources))
			for i, s := range tc.sources {
				psrc[i] = pointsto.Source{Name: s.Name, Text: s.Text}
			}
			rep, err := pointsto.Analyze(psrc, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := NewSnapshot(rep, tc.cfg.ABI)

			lay := layout.LP64
			if abi == "ilp32" {
				lay = layout.ILP32
			}
			res, err := frontend.Load(tc.sources, frontend.Options{ABI: lay})
			if err != nil {
				t.Fatal(err)
			}
			strat := refStrategy(tc.cfg.Strategy, res.Layout)
			var ref *core.Result
			if tc.cfg.Limits.MaxSteps > 0 {
				ref = core.AnalyzeWith(res.IR, strat, core.Options{Limits: core.Limits{MaxSteps: tc.cfg.Limits.MaxSteps}})
				if ref.Incomplete == nil || got.Incomplete == nil {
					t.Fatal("MaxSteps 3 should stop the run short of the fixpoint")
				}
			} else {
				ref = core.AnalyzeReference(res.IR, strat, core.Options{})
			}
			wantVars, wantSets := renderReference(res, ref)
			if !reflect.DeepEqual(got.Vars, wantVars) {
				for name, want := range wantVars {
					if g := got.Vars[name]; !reflect.DeepEqual(g, want) {
						t.Errorf("Vars[%q] = %v, reference %v", name, g, want)
					}
				}
				t.Fatalf("Vars differ from the reference rendering (%d vs %d names)", len(got.Vars), len(wantVars))
			}
			if !reflect.DeepEqual(got.Sets, wantSets) {
				t.Fatalf("Sets differ from the reference rendering (%d vs %d cells)", len(got.Sets), len(wantSets))
			}
			if tc.name == "shared-name" && len(got.Vars["p"]) != 3 {
				t.Errorf("p spans three scopes; its union is %v", got.Vars["p"])
			}
		})
	}
}

func mustCorpus(t *testing.T, name string) []frontend.Source {
	t.Helper()
	src, err := corpus.Source(name)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestSnapshotSizeCountsSharedSlicesOnce: the store's byte budget charges a
// target slice once however many names share it. Both snapshots have the
// same 1,000 names; in one they all share a 50-target slice, in the other
// only the first name holds it and the rest are empty.
func TestSnapshotSizeCountsSharedSlicesOnce(t *testing.T) {
	targets := make([]string, 50)
	for i := range targets {
		targets[i] = fmt.Sprintf("target%02d", i)
	}
	build := func(shared bool) *Snapshot {
		s := &Snapshot{Version: SnapshotVersion, Vars: make(map[string][]string)}
		for i := 0; i < 1000; i++ {
			name := fmt.Sprintf("v%04d", i)
			switch {
			case i == 0 || shared:
				s.Vars[name] = targets
			default:
				s.Vars[name] = []string{}
			}
		}
		return s
	}
	sharedSize, oneSize := build(true).SizeBytes(), build(false).SizeBytes()
	if sharedSize >= 2*oneSize {
		t.Errorf("1,000 vars sharing one 50-target slice cost %d bytes, one var holding it %d: the shared slice is counted more than once",
			sharedSize, oneSize)
	}
	// Equal content in distinct slices is still retained twice.
	copied := build(true)
	copied.Vars["v0001"] = append([]string(nil), targets...)
	if copied.SizeBytes() <= sharedSize {
		t.Error("a distinct slice with equal content must be charged")
	}
}

// TestSharedSlicesDoNotLeak: the slices Report.PointsTo and Report.Sets
// return are the caller's. Scribbling over them changes no later answer
// and no snapshot, even though the report and its snapshots share one
// rendered slice per distinct set internally.
func TestSharedSlicesDoNotLeak(t *testing.T) {
	rep, err := pointsto.Analyze([]pointsto.Source{{Name: "snap.c", Text: snapshotProgram}}, pointsto.Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := NewSnapshot(rep, "")
	wantVars := make(map[string][]string)
	for _, name := range rep.Names() {
		wantVars[name] = rep.PointsTo(name)
	}
	wantSets := rep.Sets()
	wantSnapVars := make(map[string][]string)
	for name, ts := range before.Vars {
		wantSnapVars[name] = append([]string{}, ts...)
	}

	for _, name := range rep.Names() {
		ts := rep.PointsTo(name)
		for i := range ts {
			ts[i] = "scribbled"
		}
	}
	for _, s := range rep.Sets() {
		for i := range s.Targets {
			s.Targets[i] = "scribbled"
		}
	}

	for name, want := range wantVars {
		if got := rep.PointsTo(name); !reflect.DeepEqual(got, want) {
			t.Errorf("after mutation PointsTo(%q) = %v, want %v", name, got, want)
		}
	}
	if got := rep.Sets(); !reflect.DeepEqual(got, wantSets) {
		t.Errorf("after mutation Sets() = %v, want %v", got, wantSets)
	}
	if !reflect.DeepEqual(before.Vars, wantSnapVars) {
		t.Error("mutating the report's answers changed an earlier snapshot")
	}
	if after := NewSnapshot(rep, ""); !reflect.DeepEqual(after.Vars, wantSnapVars) {
		t.Error("mutating the report's answers changed a later snapshot")
	}
}

// TestSnapshotSharesEqualSets: the rendering hands every cell with a given
// set the same slice, so a hub snapshot holds one slice per distinct list
// — far fewer than its cells — and its container's set table is that
// small. NoPrepass turns the set interner off, so equal sets sit in
// separate allocations and only the content-keyed table can share them.
func TestSnapshotSharesEqualSets(t *testing.T) {
	hub := corpus.GenerateLarge(corpus.LargeParams{NChains: 8, ChainLen: 12, NTargets: 32, NFields: 4, CrossEvery: 4, Seed: 7})
	src := make([]pointsto.Source, len(hub))
	for i, s := range hub {
		src[i] = pointsto.Source{Name: s.Name, Text: s.Text}
	}
	for _, cfg := range []pointsto.Config{{}, {Options: pointsto.Options{NoPrepass: true}}} {
		rep, err := pointsto.Analyze(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := NewSnapshot(rep, "")
		byContent := make(map[string]sliceID)
		for _, set := range snap.Sets {
			key := fmt.Sprint(set.Targets)
			id, seen := byContent[key]
			if !seen {
				byContent[key] = idOf(set.Targets)
				continue
			}
			if id != idOf(set.Targets) {
				t.Fatalf("NoPrepass=%v: cell %s holds a copy of an already rendered set %v",
					cfg.Options.NoPrepass, set.Cell, set.Targets)
			}
		}
		if len(byContent)*4 > len(snap.Sets) {
			t.Errorf("NoPrepass=%v: %d cells but %d distinct sets: the hub should share far more",
				cfg.Options.NoPrepass, len(snap.Sets), len(byContent))
		}
		tab := newSetTable()
		for _, set := range snap.Sets {
			tab.add(set.Targets)
		}
		if len(tab.sets) != len(byContent) {
			t.Errorf("NoPrepass=%v: set table has %d lists, want the %d distinct ones",
				cfg.Options.NoPrepass, len(tab.sets), len(byContent))
		}
	}
}

package export

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/pointsto"
)

// snapshotProgram is a fixed program exercising all the snapshot's fields:
// named points-to sets, a heap cell, fields, and a function pointer.
const snapshotProgram = `
struct node { struct node *next; int *val; };
int g;
int *gp = &g;
void touch(struct node *n) { n->val = &g; }
void (*fp)(struct node *) = touch;
int main(void) {
	struct node a, b;
	a.next = &b;
	b.next = &a;
	touch(&a);
	fp(&b);
	return *a.val + *gp;
}
`

func solveSnapshot(t *testing.T, cfg pointsto.Config) *Snapshot {
	t.Helper()
	rep, err := pointsto.Analyze([]pointsto.Source{{Name: "snap.c", Text: snapshotProgram}}, cfg)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return NewSnapshot(rep, cfg.ABI)
}

// TestSnapshotRoundTrip pins the wire format: serialize → deserialize →
// deep-equal, for every strategy, plus a limit-tripped (incomplete) run.
// The store's disk spill depends on this being stable.
func TestSnapshotRoundTrip(t *testing.T) {
	cfgs := []pointsto.Config{
		{Strategy: pointsto.CIS},
		{Strategy: pointsto.CollapseAlways},
		{Strategy: pointsto.CollapseOnCast},
		{Strategy: pointsto.Offsets, ABI: "ilp32"},
		{Strategy: pointsto.CIS, Limits: pointsto.Limits{MaxSteps: 3}},
	}
	for _, cfg := range cfgs {
		snap := solveSnapshot(t, cfg)
		var buf bytes.Buffer
		if err := WriteSnapshotChecked(&buf, snap); err != nil {
			t.Fatalf("%s: write: %v", cfg.Strategy, err)
		}
		got, err := ReadSnapshotChecked(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", cfg.Strategy, err)
		}
		if !reflect.DeepEqual(snap, got) {
			t.Errorf("%s: round trip changed the snapshot\nwrote: %+v\nread:  %+v", cfg.Strategy, snap, got)
		}
		if cfg.Limits.MaxSteps > 0 && got.Incomplete == nil {
			t.Errorf("%s: limit-tripped run lost its incomplete marker", cfg.Strategy)
		}
	}
}

// TestSnapshotGolden pins the serialized ptrsnap2 container bytes against a
// checked-in golden file, so accidental wire-format drift (renamed fields,
// changed ordering or numbering) is caught even when both writer and
// reader drift together. Regenerate after an intentional format change
// with:
//
//	UPDATE_SNAPSHOT_GOLDEN=1 go test ./internal/export -run TestSnapshotGolden
func TestSnapshotGolden(t *testing.T) {
	snap := solveSnapshot(t, pointsto.Config{Strategy: pointsto.CIS})
	snap.DurationNS = 0 // wall time is machine-dependent; everything else is deterministic
	var buf bytes.Buffer
	if err := WriteSnapshotChecked(&buf, snap); err != nil {
		t.Fatalf("write: %v", err)
	}
	golden := filepath.Join("testdata", "snapshot_v2.ptrsnap")
	if os.Getenv("UPDATE_SNAPSHOT_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_SNAPSHOT_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("snapshot wire format drifted from %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}

func TestSnapshotQueries(t *testing.T) {
	snap := solveSnapshot(t, pointsto.Config{})
	if !snap.HasVar("gp") || !snap.HasVar("main") {
		t.Fatalf("expected gp and main to be queryable; names: %v", snap.SortedVarNames())
	}
	if got := snap.PointsTo("gp"); len(got) != 1 || got[0] != "g" {
		t.Errorf("gp points to %v, want [g]", got)
	}
	if snap.PointsTo("no-such-variable") != nil {
		t.Error("unknown variable should yield nil")
	}
	// a.next = &b and fp(&b) passes &b to touch's n: n and a.next share b.
	if !snap.MayAlias("gp", "gp") {
		t.Error("gp must alias itself")
	}
	if snap.MayAlias("gp", "fp") {
		t.Error("gp (data pointer) must not alias fp (function pointer)")
	}
	if snap.MayAlias("gp", "no-such-variable") {
		t.Error("unknown names never alias")
	}
}

// TestSnapshotMatchesReport cross-checks the snapshot's answers against the
// live report on a corpus-sized program: the snapshot must answer PointsTo
// and MayAlias exactly as the report it captured.
func TestSnapshotMatchesReport(t *testing.T) {
	rep, err := pointsto.Analyze([]pointsto.Source{{Name: "snap.c", Text: snapshotProgram}}, pointsto.Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := NewSnapshot(rep, "")
	names := rep.Names()
	for _, name := range names {
		want := rep.PointsTo(name)
		got := snap.PointsTo(name)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("PointsTo(%q): snapshot %v, report %v", name, got, want)
		}
	}
	for _, a := range names {
		for _, b := range names {
			if want, got := rep.MayAlias(a, b), snap.MayAlias(a, b); want != got {
				t.Errorf("MayAlias(%q, %q): snapshot %v, report %v", a, b, got, want)
			}
		}
	}
	if strings.TrimSpace(snap.Strategy) == "" || snap.ABI != "lp64" {
		t.Errorf("summary fields not captured: %+v", snap)
	}
}

func TestSnapshotVersionCheck(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("version 99 should be rejected")
	}
	if _, err := ReadSnapshot(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage should be rejected")
	}
}

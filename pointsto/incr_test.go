package pointsto_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/pointsto"
)

const incrProgram = `
struct list { struct list *next; int *payload; };
int a, b;
struct list head, tail;
int *cursor;
void chain(struct list *x, struct list *y) { x->next = y; }
void stash(struct list *x) { x->payload = &a; }
int main() {
	chain(&head, &tail);
	stash(&head);
	cursor = head.payload;
	return 0;
}
`

func incrSources(text string) []pointsto.Source {
	return []pointsto.Source{{Name: "incr.c", Text: text}}
}

// TestSessionUpdateWarm: editing one function and Updating the session
// yields a warm session whose sets are identical to a cold analysis of the
// edited program, while the old session keeps answering for the old one.
func TestSessionUpdateWarm(t *testing.T) {
	ctx := context.Background()
	sess, err := pointsto.NewSession(incrSources(incrProgram), pointsto.Config{})
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(incrProgram, "x->payload = &a;", "x->payload = &b;", 1)
	warm, info, err := sess.UpdateContext(ctx, incrSources(edited))
	if err != nil {
		t.Fatal(err)
	}
	if info.Outcome != "resumed" {
		t.Fatalf("want warm resume, got %+v", info)
	}
	// Both stash and the <globals> pseudo-unit change: the edit swaps which
	// global the program references, which rewrites the global roster.
	if info.UnitsChanged != 2 || info.CellsSeeded == 0 {
		t.Errorf("unexpected delta shape: %+v", info)
	}
	cold, err := pointsto.Analyze(incrSources(edited), pointsto.Config{})
	if err != nil {
		t.Fatal(err)
	}
	warmSets, err := warm.Sets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmSets, cold.Sets()) {
		t.Errorf("warm session's sets differ from cold analysis:\nwarm: %v\ncold: %v", warmSets, cold.Sets())
	}
	// The original session is untouched: it still answers for the old text.
	targets, err := sess.PointsTo(ctx, "cursor")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 1 || targets[0] != "a" {
		t.Errorf("old session drifted: cursor -> %v", targets)
	}
}

// TestGraphCaptureIsConstant: once a session holds its report, Graph keeps
// pointers to the solve instead of copying it, so capture allocates the
// same small constant for a large hub-and-chains program as for a corpus
// program.
func TestGraphCaptureIsConstant(t *testing.T) {
	ctx := context.Background()
	ks, err := corpus.Source("ks")
	if err != nil {
		t.Fatal(err)
	}
	hub := corpus.GenerateLarge(corpus.LargeParams{NChains: 64, ChainLen: 12, NTargets: 128, NFields: 8, CrossEvery: 16, Seed: 3})
	allocs := make(map[string]float64)
	for name, srcs := range map[string][]frontend.Source{"ks": ks, "hub": hub} {
		sources := make([]pointsto.Source, len(srcs))
		for i, s := range srcs {
			sources[i] = pointsto.Source{Name: s.Name, Text: s.Text}
		}
		sess, err := pointsto.NewSession(sources, pointsto.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Report(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Graph(ctx); err != nil {
			t.Fatal(err)
		}
		allocs[name] = testing.AllocsPerRun(20, func() {
			if _, err := sess.Graph(ctx); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d facts, %v allocs per capture", name, rep.TotalFacts(), allocs[name])
	}
	if allocs["ks"] > 4 || allocs["hub"] != allocs["ks"] {
		t.Errorf("capture allocates %v (ks) and %v (hub); want the same small constant", allocs["ks"], allocs["hub"])
	}
}

// TestUpdateIneligibleConfig: Limits force the cold path (and Graph refuses
// outright), but Update still works — it just reports the fallback.
func TestUpdateIneligibleConfig(t *testing.T) {
	ctx := context.Background()
	cfg := pointsto.Config{Limits: pointsto.Limits{MaxSteps: 1 << 20}}
	sess, err := pointsto.NewSession(incrSources(incrProgram), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Resumable() {
		t.Fatal("limit-bearing config claims to be resumable")
	}
	if _, err := sess.Graph(ctx); !errors.Is(err, pointsto.ErrNotResumable) {
		t.Fatalf("Graph under Limits: want ErrNotResumable, got %v", err)
	}
	edited := strings.Replace(incrProgram, "&a", "&b", 1)
	warm, info, err := sess.UpdateContext(ctx, incrSources(edited))
	if err != nil {
		t.Fatal(err)
	}
	if info.Outcome != "cold" || info.FallbackReason != "config-ineligible" {
		t.Fatalf("want config-ineligible fallback, got %+v", info)
	}
	if _, err := warm.PointsTo(ctx, "cursor"); err != nil {
		t.Fatal(err)
	}
}

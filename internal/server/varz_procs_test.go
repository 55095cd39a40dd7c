package server

import (
	"runtime"
	"testing"

	"repro/internal/corpus"
)

// TestVarzSolverIndependentOfGOMAXPROCS replays one /v1/analyze sequence
// on fresh servers under GOMAXPROCS 1 and 4 and requires identical /varz
// solver sections. Every solve runs one sequential fixpoint, so no counter
// may depend on the core count. The hub-and-chains program's frontiers are
// wide enough that a core-count-dependent executor would show up in the
// wave counters. InFlightNS is wall time and is the one field excluded.
func TestVarzSolverIndependentOfGOMAXPROCS(t *testing.T) {
	p := corpus.DefaultLargeParams()
	p.NChains, p.ChainLen = 256, 24
	var hub []SourceJSON
	for _, s := range corpus.GenerateLarge(p) {
		hub = append(hub, SourceJSON{Name: s.Name, Text: s.Text})
	}
	reqs := []AnalyzeRequest{
		{Sources: hub},
		{Sources: hub, Strategy: "collapse-always"},
		{Sources: []SourceJSON{{Name: "cyclic.c", Text: cyclicProgram}}},
		{Corpus: "compiler"},
	}
	replay := func(procs int) SolverVarz {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		_, ts := newTestServer(t, Config{})
		defer ts.Close()
		for i, req := range reqs {
			if resp, raw := postJSON(t, ts.URL+"/v1/analyze", req); resp.StatusCode != 200 {
				t.Fatalf("GOMAXPROCS=%d request %d: status %d: %s", procs, i, resp.StatusCode, raw)
			}
		}
		sv := varz(t, ts.URL).Solver
		sv.InFlightNS = 0
		return sv
	}
	one, four := replay(1), replay(4)
	if one.Solves != int64(len(reqs)) || one.Waves == 0 {
		t.Fatalf("replay did not exercise the wave scheduler: %+v", one)
	}
	if one != four {
		t.Errorf("/varz solver section depends on GOMAXPROCS:\n  1: %+v\n  4: %+v", one, four)
	}
}

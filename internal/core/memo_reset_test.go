package core

import (
	"testing"

	"repro/internal/cc/layout"
	"repro/internal/frontend"
)

// TestFinishResetsMemo: a Result keeps its strategy for as long as the
// Result lives, so a finished solve empties the strategy's lookup/resolve
// caches — and leaves them switched on, since the counters still split
// hits from misses for any later call.
func TestFinishResetsMemo(t *testing.T) {
	res, err := frontend.Load(mustSource(t, "compiler"), frontend.Options{ABI: layout.LP64})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{NewCollapseAlways(), NewCollapseOnCast(), NewCIS(), NewOffsets(res.Layout)} {
		var memo *memoTable
		switch s := strat.(type) {
		case *CollapseAlways:
			memo = &s.memo
		case *CollapseOnCast:
			memo = &s.memo
		case *CIS:
			memo = &s.memo
		case *Offsets:
			memo = &s.memo
		}
		Analyze(res.IR, strat)
		if rec := strat.Recorder(); rec.LookupCacheHits+rec.ResolveCacheHits == 0 {
			t.Errorf("%s: the solve never hit its cache", strat.Name())
		}
		if memo.lookups != nil || memo.resolves != nil {
			t.Errorf("%s: %d lookups and %d resolves still cached after the solve",
				strat.Name(), len(memo.lookups), len(memo.resolves))
		}
		if memo.off {
			t.Errorf("%s: finishing the solve switched the cache off", strat.Name())
		}
	}
}

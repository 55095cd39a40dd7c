package core

import (
	"repro/internal/cc/types"
	"repro/internal/ir"
)

// This file implements the strategy-level memoization of lookup and resolve.
// Both functions are pure: their results depend only on the declared type,
// the field selector and the target cell (plus the immutable type graph and
// layout), so within one analysis run a repeated call — the common case,
// since many statements dereference the same cells with the same declared
// types — can be answered from a cache.
//
// Invariants:
//
//   - The Recorder counts LOGICAL calls: a cache hit still increments the
//     lookup/resolve counters (and replays the memoized mismatch flag), so
//     the Figure 3 instrumentation is identical with and without the cache.
//   - Cached slices are shared across calls and must never be mutated by
//     callers; the solver only iterates them.
//   - Caches live inside a strategy instance, so concurrent analysis runs
//     (core.AnalyzeBatch) are isolated as long as each run constructs its
//     own Strategy.

// lookupKey identifies one logical lookup(τ, α, target) call.
type lookupKey struct {
	τ      *types.Type
	path   string
	target Cell
}

// resolveKey identifies one logical resolve(dst, src, τ) call.
type resolveKey struct {
	dst, src Cell
	τ        *types.Type
}

type lookupVal struct {
	cells    []Cell
	mismatch bool
}

type resolveVal struct {
	edges    []Edge
	mismatch bool
}

// memoTable is the per-instance cache. The zero value is an enabled, empty
// cache; maps are allocated on first store.
type memoTable struct {
	off      bool
	lookups  map[lookupKey]lookupVal
	resolves map[resolveKey]resolveVal
}

// SetMemoization enables or disables the lookup/resolve caches (they are on
// by default). Disabling clears any cached entries; results are identical
// either way — the switch exists for the cache-correctness tests and as an
// ablation.
func (m *memoTable) SetMemoization(on bool) {
	m.off = !on
	if !on {
		m.lookups = nil
		m.resolves = nil
	}
}

// reset drops every cached entry and leaves the cache switch as it is; the
// next store allocates fresh maps.
func (m *memoTable) reset() { m.lookups, m.resolves = nil, nil }

func (m *memoTable) getLookup(k lookupKey) (lookupVal, bool) {
	if m.off {
		return lookupVal{}, false
	}
	v, ok := m.lookups[k]
	return v, ok
}

func (m *memoTable) putLookup(k lookupKey, v lookupVal) {
	if m.off {
		return
	}
	if m.lookups == nil {
		m.lookups = make(map[lookupKey]lookupVal)
	}
	m.lookups[k] = v
}

func (m *memoTable) getResolve(k resolveKey) (resolveVal, bool) {
	if m.off {
		return resolveVal{}, false
	}
	v, ok := m.resolves[k]
	return v, ok
}

func (m *memoTable) putResolve(k resolveKey, v resolveVal) {
	if m.off {
		return
	}
	if m.resolves == nil {
		m.resolves = make(map[resolveKey]resolveVal)
	}
	m.resolves[k] = v
}

// Memoizer is implemented by every strategy whose lookup/resolve results are
// cached; it exposes the cache switch.
type Memoizer interface {
	SetMemoization(on bool)
}

// SetMemoization flips the cache switch when the strategy supports one.
func SetMemoization(s Strategy, on bool) {
	if m, ok := s.(Memoizer); ok {
		m.SetMemoization(on)
	}
}

// memoResetter is implemented by every strategy that carries a memoTable.
type memoResetter interface {
	resetMemo()
}

// resetMemo empties the strategy's lookup/resolve caches when it has them.
func resetMemo(s Strategy) {
	if m, ok := s.(memoResetter); ok {
		m.resetMemo()
	}
}

// memoLookup answers a counted Lookup call through the cache: on a miss the
// uncounted core lk runs and its result is stored. Either way the recorder
// counts one logical call with the call's (deterministic) flags.
func (f *fieldOps) memoLookup(lk lookupFn, τ *types.Type, path ir.Path, target Cell) []Cell {
	key := lookupKey{τ: τ, path: JoinPath(path), target: target}
	if v, ok := f.memo.getLookup(key); ok {
		f.rec.recordLookup(structsInvolved(τ, target), v.mismatch)
		f.rec.LookupCacheHits++
		return v.cells
	}
	cells, mismatch := lk(τ, path, target)
	f.memo.putLookup(key, lookupVal{cells: cells, mismatch: mismatch})
	f.rec.recordLookup(structsInvolved(τ, target), mismatch)
	f.rec.LookupCacheMisses++
	return cells
}

// memoResolve answers a counted Resolve call through the cache, building the
// result via resolveVia on a miss. Unknown-extent copies (τ == nil) are not
// counted as resolve calls, matching the uncached behavior.
func (f *fieldOps) memoResolve(lk lookupFn, dst, src Cell, τ *types.Type) []Edge {
	key := resolveKey{dst: dst, src: src, τ: τ}
	if v, ok := f.memo.getResolve(key); ok {
		if τ != nil {
			f.rec.recordResolve(structsInvolved(τ, dst, src), v.mismatch)
		}
		f.rec.ResolveCacheHits++
		return v.edges
	}
	edges, mismatch := f.resolveVia(lk, dst, src, τ)
	f.memo.putResolve(key, resolveVal{edges: edges, mismatch: mismatch})
	if τ != nil {
		f.rec.recordResolve(structsInvolved(τ, dst, src), mismatch)
	}
	f.rec.ResolveCacheMisses++
	return edges
}

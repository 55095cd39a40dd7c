package core

import (
	"repro/internal/cc/types"
	"repro/internal/ir"
)

// fieldOps carries the machinery shared by the two portable field-sensitive
// strategies (Collapse on Cast and Common Initial Sequence): first-field
// normalization, enclosing-candidate search, followingFields smearing, and
// the resolve construction that pairs both sides through lookup.
type fieldOps struct {
	rec  Recorder
	memo memoTable

	// noFirstField disables the innermost-first-field normalization
	// (ablation only: without it, a pointer to a structure and a pointer
	// to its first field are different cells, and Problem 1 accesses are
	// missed — unsound, but it quantifies what normalize buys).
	noFirstField bool

	leafCache map[*types.Type][]ir.Path
}

func newFieldOps() fieldOps {
	return fieldOps{leafCache: make(map[*types.Type][]ir.Path)}
}

// SetMemoization implements Memoizer for the field-based strategies.
func (f *fieldOps) SetMemoization(on bool) { f.memo.SetMemoization(on) }

func (f *fieldOps) resetMemo() { f.memo.reset() }

// exactEdges implements exactEdger: both field strategies propagate through
// exactEdgePropagate, so their Size==0 edges are indexable by source cell.
func (f *fieldOps) exactEdges() bool { return true }

func (f *fieldOps) leaves(t *types.Type) []ir.Path {
	if cached, ok := f.leafCache[t]; ok {
		return cached
	}
	l := leafPaths(t)
	f.leafCache[t] = l
	return l
}

// normalize is the shared normalize of §4.3.2/§4.3.3: map a reference to its
// innermost first field.
func (f *fieldOps) normalize(obj *ir.Object, path ir.Path) Cell {
	if obj.Type == nil {
		return Cell{Obj: obj} // untyped heap blob: a single cell
	}
	if f.noFirstField {
		return Cell{Obj: obj, Path: JoinPath(path)}
	}
	return Cell{Obj: obj, Path: JoinPath(normalizePath(obj.Type, path))}
}

// smear returns the cells of target's object at or after target in layout
// order (the followingFields fallback both portable instances use on a type
// mismatch).
func (f *fieldOps) smear(target Cell) []Cell {
	t := target.Obj.Type
	if t == nil {
		return []Cell{{Obj: target.Obj}}
	}
	var out []Cell
	for _, l := range followingLeaves(t, target.PathSlice()) {
		out = append(out, Cell{Obj: target.Obj, Path: JoinPath(l)})
	}
	if len(out) == 0 {
		out = append(out, target)
	}
	return out
}

// cellsOf enumerates all normalized cells of an object.
func (f *fieldOps) cellsOf(obj *ir.Object) []Cell {
	if obj.Type == nil {
		return []Cell{{Obj: obj}}
	}
	ls := f.leaves(obj.Type)
	out := make([]Cell, len(ls))
	for i, l := range ls {
		out[i] = Cell{Obj: obj, Path: JoinPath(l)}
	}
	return out
}

// expandedSize counts the source fields a cell stands for.
func (f *fieldOps) expandedSize(c Cell) int {
	t := typeAt(c.Obj.Type, c.PathSlice())
	if t == nil {
		return leafCount(c.Obj.Type)
	}
	return leafCount(t)
}

// lookupFn is the uncounted core of a strategy's lookup; mismatch reports
// whether the fallback smearing was used.
type lookupFn func(τ *types.Type, path ir.Path, target Cell) (cells []Cell, mismatch bool)

// resolveVia implements resolve in terms of a lookup function, as both
// portable instances define it (§4.3.2):
//
//	resolve(s.α̂, t.β̂, τ) = { ⟨γ, γ'⟩ | δ a field of τ,
//	                          γ  ∈ lookup(τ_δ?, δ, s.α̂),
//	                          γ' ∈ lookup(τ_δ?, δ, t.β̂) }
//
// δ ranges over the normalized leaves of τ so that nested structures copy
// field by field. τ == nil (a copy of unknown extent) pairs everything at or
// after each endpoint.
func (f *fieldOps) resolveVia(lk lookupFn, dst, src Cell, τ *types.Type) ([]Edge, bool) {
	if τ == nil {
		ds := f.smear(dst)
		ss := f.smear(src)
		var edges []Edge
		for _, d := range ds {
			for _, s := range ss {
				edges = append(edges, Edge{Dst: d, Src: s})
			}
		}
		return edges, true
	}
	var edges []Edge
	mismatch := false
	for _, δ := range f.leaves(τ) {
		ds, m1 := lk(τ, δ, dst)
		ss, m2 := lk(τ, δ, src)
		if m1 || m2 {
			mismatch = true
		}
		for _, d := range ds {
			for _, s := range ss {
				edges = append(edges, Edge{Dst: d, Src: s})
			}
		}
	}
	return edges, mismatch
}

// structsInvolved reports whether a lookup/resolve call "involves
// structures" for the Figure 3 instrumentation.
func structsInvolved(τ *types.Type, cells ...Cell) bool {
	if isRecordType(τ) {
		return true
	}
	for _, c := range cells {
		if objIsRecord(c.Obj) {
			return true
		}
	}
	return false
}

package core

import (
	"encoding/binary"
	"slices"
)

// Rendering is the display form of a Result, built once per Result from
// its dense state (table, dense sets, cycle-merge redirect): every interned
// cell is ranked once in CellSet.Sorted order and named once through
// Cell.String, and every distinct points-to set is rendered once as its
// sorted target names. Cells with equal sets — cells sharing an
// interned allocation, merged cells and equal-content sets alike — share
// one rendered slice, so rendering costs O(distinct sets) strings instead
// of O(facts), and a serializer can carry that sharing to the wire.
//
// A Rendering is immutable and safe for concurrent use. Every slice it
// returns may be shared with other cells and must not be modified.
type Rendering struct {
	table *CellTable
	order []CellID   // display order: cells as CellSet.Sorted orders them
	rank  []int32    // CellID → position in order
	names []string   // CellID → Cell.String(), for non-empty cells and targets
	setOf []int32    // CellID → distinct-set index, -1 for an empty set
	ranks [][]int32  // distinct set → member ranks, ascending
	sets  [][]string // distinct set → member names, in rank order
}

// Rendering returns the result's display form, building it on first use.
func (r *Result) Rendering() *Rendering {
	r.renderOnce.Do(func() { r.render = newRendering(r) })
	return r.render
}

func newRendering(r *Result) *Rendering {
	n := r.table.Len()
	cells := r.table.cells
	g := &Rendering{
		table: r.table,
		order: make([]CellID, n),
		rank:  make([]int32, n),
		names: make([]string, n),
		setOf: make([]int32, n),
	}
	for i := range g.order {
		g.order[i] = CellID(i)
	}
	slices.SortFunc(g.order, func(a, b CellID) int { return compareCells(cells[a], cells[b]) })
	for i, id := range g.order {
		g.rank[id] = int32(i)
	}

	// Two levels of sharing: cells whose Bits alias one allocation (the
	// interner's hash-consing, or a merged member reading its
	// representative) are recognized by identity without touching their
	// members; other equal sets meet in the content-keyed table.
	type alloc struct {
		first  *bitsBlock
		blocks int
	}
	byAlloc := make(map[alloc]int32)
	byContent := make(map[string]int32)
	var key []byte
	for i := range g.setOf {
		id := CellID(i)
		g.setOf[id] = -1
		if i >= len(r.dense) {
			continue
		}
		b := r.set(id)
		if b.Len() == 0 {
			continue
		}
		g.name(id)
		a := alloc{&b.blocks[0], len(b.blocks)}
		if s, ok := byAlloc[a]; ok {
			g.setOf[id] = s
			continue
		}
		ranks := make([]int32, 0, b.Len())
		b.Iterate(func(t CellID) { ranks = append(ranks, g.rank[t]) })
		slices.Sort(ranks)
		key = key[:0]
		for _, k := range ranks {
			key = binary.LittleEndian.AppendUint32(key, uint32(k))
		}
		s, ok := byContent[string(key)]
		if !ok {
			s = int32(len(g.sets))
			byContent[string(key)] = s
			names := make([]string, len(ranks))
			for j, k := range ranks {
				names[j] = g.name(g.order[k])
			}
			g.ranks = append(g.ranks, ranks)
			g.sets = append(g.sets, names)
		}
		byAlloc[a] = s
		g.setOf[id] = s
	}
	return g
}

// name returns id's display name, computing it on first use. Only the
// builder calls it, so a finished Rendering is read-only.
func (g *Rendering) name(id CellID) string {
	if g.names[id] == "" {
		g.names[id] = g.table.Cell(id).String()
	}
	return g.names[id]
}

// setIndex returns c's distinct-set index, -1 when c was never interned or
// its set is empty.
func (g *Rendering) setIndex(c Cell) int32 {
	id, ok := g.table.Find(c)
	if !ok || int(id) >= len(g.setOf) {
		return -1
	}
	return g.setOf[id]
}

// distinct appends the distinct non-empty set indexes of cells to buf.
func (g *Rendering) distinct(buf []int32, cells []Cell) []int32 {
	for _, c := range cells {
		if s := g.setIndex(c); s >= 0 && !slices.Contains(buf, s) {
			buf = append(buf, s)
		}
	}
	return buf
}

// Union returns the union of the cells' points-to sets as target names in
// CellSet.Sorted order, nil when all are empty. When only one distinct set is non-empty
// the result is that shared slice; otherwise it is merged by rank into a
// fresh one.
func (g *Rendering) Union(cells []Cell) []string {
	var buf [4]int32
	idx := g.distinct(buf[:0], cells)
	switch len(idx) {
	case 0:
		return nil
	case 1:
		return g.sets[idx[0]]
	}
	merged := g.mergeRanks(idx)
	out := make([]string, len(merged))
	for i, k := range merged {
		out[i] = g.names[g.order[k]]
	}
	return out
}

// mergeRanks returns the ascending, duplicate-free union of the rank lists
// of the given distinct sets.
func (g *Rendering) mergeRanks(idx []int32) []int32 {
	if len(idx) == 1 {
		return g.ranks[idx[0]] // shared; callers only read it
	}
	var merged []int32
	for _, s := range idx {
		merged = append(merged, g.ranks[s]...)
	}
	slices.Sort(merged)
	return slices.Compact(merged)
}

// Overlaps reports whether the union of a's points-to sets and the union
// of b's share a target.
func (g *Rendering) Overlaps(a, b []Cell) bool {
	var bufA, bufB [4]int32
	ia, ib := g.distinct(bufA[:0], a), g.distinct(bufB[:0], b)
	if len(ia) == 0 || len(ib) == 0 {
		return false
	}
	ra, rb := g.mergeRanks(ia), g.mergeRanks(ib)
	for i, j := 0, 0; i < len(ra) && j < len(rb); {
		switch {
		case ra[i] == rb[j]:
			return true
		case ra[i] < rb[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Cells calls fn for every cell with a non-empty points-to set, in
// CellSet.Sorted order, with the cell's name and its shared target names.
func (g *Rendering) Cells(fn func(c Cell, name string, targets []string)) {
	for _, id := range g.order {
		if s := g.setOf[id]; s >= 0 {
			fn(g.table.Cell(id), g.names[id], g.sets[s])
		}
	}
}

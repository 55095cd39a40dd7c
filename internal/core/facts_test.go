package core_test

import (
	"strings"

	"repro/internal/core"
)

// facts reads a result's points-to relation straight from DenseState,
// following the cycle-merge redirect, so the differential tests compare
// the solvers' answers without going through Rendering.
func facts(res *core.Result) map[core.Cell]core.CellSet {
	cells, redirect, sets := res.DenseState()
	m := make(map[core.Cell]core.CellSet)
	for i, c := range cells {
		ids := sets[i]
		if redirect != nil {
			ids = sets[redirect[i]]
		}
		if len(ids) == 0 {
			continue
		}
		set := make(core.CellSet, len(ids))
		for _, id := range ids {
			set.Add(cells[id])
		}
		m[c] = set
	}
	return m
}

// factDump renders a result as the canonical fact listing: one
// "cell -> {targets}" line per cell with a non-empty set, cells and
// targets in CellSet.Sorted order.
func factDump(res *core.Result) string {
	m := facts(res)
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

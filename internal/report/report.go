// Package report renders the paper's tables and figures (Figure 3–6) from
// measured data as aligned text tables, plus ASCII bar charts for the
// ratio figures.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/metrics"
)

// shortLabel maps strategy names to the column labels used in the paper.
var shortLabel = map[string]string{
	"collapse-always":    "Collapse",
	"collapse-on-cast":   "CoC",
	"common-initial-seq": "CIS",
	"offsets":            "Offsets",
}

// Fig3 renders Figure 3: program sizes, normalized assignment counts, and
// the lookup/resolve instrumentation percentages for the two portable
// casting-aware instances.
func Fig3(w io.Writer, progs []*metrics.Program) {
	fmt.Fprintln(w, "Figure 3: benchmark programs and lookup/resolve call statistics")
	fmt.Fprintln(w, "(percent of calls involving structs, and percent of those with a type mismatch)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %7s %7s | %9s %9s | %9s %9s\n",
		"program", "LOC", "stmts", "lk-str%", "rs-str%", "lk-mis%", "rs-mis%")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 76))
	group := false
	for _, p := range progs {
		if p.HasStructCast && !group {
			fmt.Fprintf(w, "%s  (programs below cast structures)\n", strings.Repeat("-", 52))
			group = true
		}
		fmt.Fprintf(w, "%-12s %7d %7d | %8.1f%% %8.1f%% | %8.1f%% %8.1f%%\n",
			p.Name, p.LOC, p.NumStmts,
			p.PctLookupStructs("common-initial-seq"),
			p.PctResolveStructs("common-initial-seq"),
			p.PctLookupMismatch("common-initial-seq"),
			p.PctResolveMismatch("common-initial-seq"))
	}
	fmt.Fprintln(w)
}

// Fig4 renders Figure 4: average points-to set size of a dereferenced
// pointer for each casting program under each instance.
func Fig4(w io.Writer, progs []*metrics.Program) {
	fmt.Fprintln(w, "Figure 4: average points-to set size of a dereferenced pointer")
	fmt.Fprintln(w, "(Collapse Always facts expanded per-field for comparability)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s", "program")
	for _, s := range metrics.StrategyNames {
		fmt.Fprintf(w, " %9s", shortLabel[s])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 12+4*10))
	for _, p := range progs {
		if !p.HasStructCast {
			continue
		}
		fmt.Fprintf(w, "%-12s", p.Name)
		for _, s := range metrics.StrategyNames {
			fmt.Fprintf(w, " %9.2f", p.Runs[s].AvgDerefSize)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// Fig5 renders Figure 5: analysis-time ratios normalized to Offsets, with
// the absolute Offsets time shown under each program as the paper does.
func Fig5(w io.Writer, progs []*metrics.Program) {
	fmt.Fprintln(w, "Figure 5: analysis-time ratios (normalized to the Offsets instance)")
	fmt.Fprintln(w)
	ratioFigure(w, progs, func(p *metrics.Program, s string) float64 {
		return p.TimeRatio(s)
	})
	fmt.Fprintln(w, "absolute Offsets times:")
	for _, p := range progs {
		fmt.Fprintf(w, "  %-12s %v\n", p.Name, p.Runs["offsets"].Duration)
	}
	fmt.Fprintln(w)
}

// Fig6 renders Figure 6: total points-to edges normalized to Offsets.
func Fig6(w io.Writer, progs []*metrics.Program) {
	fmt.Fprintln(w, "Figure 6: total points-to edges (normalized to the Offsets instance)")
	fmt.Fprintln(w)
	ratioFigure(w, progs, func(p *metrics.Program, s string) float64 {
		return p.EdgeRatio(s)
	})
	fmt.Fprintln(w, "absolute Offsets edge counts:")
	for _, p := range progs {
		fmt.Fprintf(w, "  %-12s %d\n", p.Name, p.Runs["offsets"].TotalFacts)
	}
	fmt.Fprintln(w)
}

// ratioFigure renders a table of per-strategy ratios plus a bar chart.
func ratioFigure(w io.Writer, progs []*metrics.Program, ratio func(*metrics.Program, string) float64) {
	fmt.Fprintf(w, "%-12s", "program")
	for _, s := range metrics.StrategyNames {
		fmt.Fprintf(w, " %9s", shortLabel[s])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 12+4*10))
	for _, p := range progs {
		fmt.Fprintf(w, "%-12s", p.Name)
		for _, s := range metrics.StrategyNames {
			fmt.Fprintf(w, " %9.2f", ratio(p, s))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	// Bars for the portable instances relative to 1.0 (Offsets).
	fmt.Fprintln(w, "bars (each ∎ = 0.25×; | marks the 1.0 Offsets baseline):")
	for _, p := range progs {
		for _, s := range []string{"collapse-on-cast", "common-initial-seq"} {
			r := ratio(p, s)
			n := int(r*4 + 0.5)
			if n > 48 {
				n = 48
			}
			bar := strings.Repeat("∎", n)
			if n >= 4 {
				bar = bar[:3*len("∎")] + "|" + bar[3*len("∎"):]
			}
			fmt.Fprintf(w, "  %-12s %-4s %5.2f %s\n", p.Name, shortLabel[s], r, bar)
		}
	}
	fmt.Fprintln(w)
}

// Summary prints the two headline claims with the measured evidence.
func Summary(w io.Writer, progs []*metrics.Program) {
	fmt.Fprintln(w, "Summary of the paper's two claims against this corpus:")
	fmt.Fprintln(w)

	// Claim (i): distinguishing fields matters.
	atLeast2x := 0
	castProgs := 0
	worstName, worstFactor := "", 0.0
	for _, p := range progs {
		if !p.HasStructCast {
			continue
		}
		castProgs++
		ca := p.Runs["collapse-always"].AvgDerefSize
		cis := p.Runs["common-initial-seq"].AvgDerefSize
		if cis > 0 && ca >= 2*cis {
			atLeast2x++
		}
		if cis > 0 && ca/cis > worstFactor {
			worstFactor = ca / cis
			worstName = p.Name
		}
	}
	fmt.Fprintf(w, "(i) field sensitivity: Collapse Always sets are ≥2× the CIS sets on %d/%d\n",
		atLeast2x, castProgs)
	fmt.Fprintf(w, "    casting programs; worst case %s at %.1f×\n", worstName, worstFactor)

	// Claim (ii): portability is cheap.
	within2pct := 0
	worstCoC, worstCoCName := 0.0, ""
	worstCIS, worstCISName := 0.0, ""
	for _, p := range progs {
		off := p.Runs["offsets"].AvgDerefSize
		coc := p.Runs["collapse-on-cast"].AvgDerefSize
		cis := p.Runs["common-initial-seq"].AvgDerefSize
		if off <= 0 {
			continue
		}
		if cis/off <= 1.02 {
			within2pct++
		}
		if coc/off-1 > worstCoC {
			worstCoC = coc/off - 1
			worstCoCName = p.Name
		}
		if cis/off-1 > worstCIS {
			worstCIS = cis/off - 1
			worstCISName = p.Name
		}
	}
	fmt.Fprintf(w, "(ii) portability: CIS within 2%% of Offsets on %d/%d programs;\n",
		within2pct, len(progs))
	fmt.Fprintf(w, "     worst cases: CoC +%.1f%% (%s), CIS +%.1f%% (%s)\n",
		100*worstCoC, worstCoCName, 100*worstCIS, worstCISName)
	fmt.Fprintln(w)
}

// WaveStats renders the solver's constraint-graph counters: copy-edge SCCs
// collapsed by online cycle elimination, cells merged, topological waves
// run, and the batched vs per-fact edge traversal counts, per (program,
// instance). The Offsets instance never collapses cells (its range edges
// are excluded from cycle elimination) and is omitted.
func WaveStats(w io.Writer, progs []*metrics.Program) {
	fmt.Fprintln(w, "Solver constraint-graph stats: online cycle elimination + wave scheduling")
	fmt.Fprintln(w, "(saved = per-fact edge crossings avoided by batched topological propagation)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %-10s %6s %7s %6s %9s %10s %10s\n",
		"program", "strategy", "sccs", "merged", "waves", "batches", "crossings", "saved")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 78))
	var tot metrics.Run
	for _, p := range progs {
		for _, s := range metrics.StrategyNames {
			r := p.Runs[s]
			if r == nil || s == "offsets" {
				continue
			}
			ws := r.Wave
			fmt.Fprintf(w, "%-12s %-10s %6d %7d %6d %9d %10d %10d\n",
				p.Name, shortLabel[s], ws.SCCsFound, ws.CellsMerged, ws.Waves,
				ws.EdgeBatches, ws.FactCrossings, ws.TraversalsSaved())
			tot.Wave.SCCsFound += ws.SCCsFound
			tot.Wave.CellsMerged += ws.CellsMerged
			tot.Wave.Waves += ws.Waves
			tot.Wave.EdgeBatches += ws.EdgeBatches
			tot.Wave.FactCrossings += ws.FactCrossings
		}
	}
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 78))
	fmt.Fprintf(w, "%-12s %-10s %6d %7d %6d %9d %10d %10d\n",
		"total", "", tot.Wave.SCCsFound, tot.Wave.CellsMerged, tot.Wave.Waves,
		tot.Wave.EdgeBatches, tot.Wave.FactCrossings, tot.Wave.TraversalsSaved())
	fmt.Fprintln(w)
	prepStats(w, progs)
}

// prepStats renders the offline constraint-reduction and set-interner
// counters when any run engaged the pair (NoPrepass evaluations print
// nothing extra). The prep_* columns are a deterministic function of
// (program, strategy); the intern_* columns depend on the wave schedule.
func prepStats(w io.Writer, progs []*metrics.Program) {
	engaged := false
	for _, p := range progs {
		for _, r := range p.Runs {
			if r.Wave.PrepCollapsed > 0 || r.Wave.InternSets > 0 {
				engaged = true
			}
		}
	}
	if !engaged {
		return
	}
	fmt.Fprintln(w, "Offline prepass + hash-consed sets: pre-fixpoint merges, shared allocations")
	fmt.Fprintln(w, "(classes/collapsed/chains are deterministic; intern columns follow the schedule;")
	fmt.Fprintln(w, " peak-live is the barrier-sampled heap, populated only under -peak-mem)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %-10s %8s %10s %7s %7s %9s %12s %10s\n",
		"program", "strategy", "classes", "collapsed", "chains", "epochs", "interned", "bytes-shared", "peak-live")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 93))
	var tc, tcol, tch, te, ti, tb int
	for _, p := range progs {
		for _, s := range metrics.StrategyNames {
			r := p.Runs[s]
			if r == nil || s == "offsets" {
				continue
			}
			ws := r.Wave
			if ws.PrepClasses == 0 && ws.PrepCollapsed == 0 && ws.InternSets == 0 {
				continue
			}
			fmt.Fprintf(w, "%-12s %-10s %8d %10d %7d %7d %9d %12d %10d\n",
				p.Name, shortLabel[s], ws.PrepClasses, ws.PrepCollapsed, ws.PrepChains,
				ws.InternEpochs, ws.InternSets, ws.InternBytes, ws.PeakLiveBytes)
			tc += ws.PrepClasses
			tcol += ws.PrepCollapsed
			tch += ws.PrepChains
			te += ws.InternEpochs
			ti += ws.InternSets
			tb += ws.InternBytes
		}
	}
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 93))
	fmt.Fprintf(w, "%-12s %-10s %8d %10d %7d %7d %9d %12d\n",
		"total", "", tc, tcol, tch, te, ti, tb)
	fmt.Fprintln(w)
}

// Demand renders the demand-driven engine's measurements: per program, the
// median query's cold and warm latency against the exhaustive solve, and
// how much of the program the slice touched.
func Demand(w io.Writer, ms []*metrics.DemandMeasurement) {
	fmt.Fprintln(w, "Demand-driven queries vs exhaustive solve (median named dereference pointer;")
	fmt.Fprintln(w, "slice range spans the cheapest to the most expensive single query):")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %-10s %10s %10s %10s | %7s %14s %12s\n",
		"program", "query", "first", "warm", "full", "cells%", "cells", "slice range")
	for _, m := range ms {
		fmt.Fprintf(w, "%-12s %-10s %10v %10v %10v | %6.1f%% %6d/%-7d %5d-%-6d\n",
			m.Name, m.QueryVar, m.FirstQuery, m.WarmQuery, m.FullSolve,
			100*m.CellRatio(), m.DemandCells, m.FullCells, m.MinCells, m.MaxCells)
	}
	fmt.Fprintln(w)
}

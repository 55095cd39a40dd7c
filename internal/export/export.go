// Package export serializes analysis results and experiment measurements to
// JSON, so the reproduced figures can be consumed by external tooling
// (plotting scripts, CI regression checks) instead of being re-parsed from
// the text tables.
package export

import (
	"encoding/json"
	"io"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/metrics"
)

// PointsTo is the JSON form of one cell's points-to set.
type PointsTo struct {
	Cell    string   `json:"cell"`
	Targets []string `json:"targets"`
}

// ResultJSON is the JSON form of one analysis run.
type ResultJSON struct {
	Strategy     string     `json:"strategy"`
	TotalFacts   int        `json:"total_facts"`
	AvgDerefSize float64    `json:"avg_deref_size"`
	DurationNS   int64      `json:"duration_ns"`
	Sets         []PointsTo `json:"sets,omitempty"`
}

// Result converts a core.Result. includeSets controls whether the full
// points-to sets are embedded (they can be large).
func Result(r *core.Result, includeSets bool) ResultJSON {
	out := ResultJSON{
		Strategy:     r.Strategy.Name(),
		TotalFacts:   r.TotalFacts(),
		AvgDerefSize: r.AvgDerefSetSize(),
		DurationNS:   r.Duration.Nanoseconds(),
	}
	if includeSets {
		r.Rendering().Cells(func(c core.Cell, name string, targets []string) {
			if !c.Obj.IsTemp() {
				out.Sets = append(out.Sets, PointsTo{Cell: name, Targets: slices.Clone(targets)})
			}
		})
		sort.Slice(out.Sets, func(i, j int) bool { return out.Sets[i].Cell < out.Sets[j].Cell })
	}
	return out
}

// SiteJSON is the JSON form of one dereference site.
type SiteJSON struct {
	Pos     string `json:"pos"`
	Pointer string `json:"pointer"`
	Size    int    `json:"size"`
}

// Sites converts the per-site set sizes of a result.
func Sites(r *core.Result, prog *ir.Program) []SiteJSON {
	var out []SiteJSON
	for _, s := range prog.Sites {
		out = append(out, SiteJSON{
			Pos:     s.Pos.String(),
			Pointer: s.Ptr.Name,
			Size:    r.SiteSetSize(s),
		})
	}
	return out
}

// RunJSON is the JSON form of one (program, strategy) measurement.
type RunJSON struct {
	Strategy     string  `json:"strategy"`
	AvgDerefSize float64 `json:"avg_deref_size"`
	TotalFacts   int     `json:"total_facts"`
	DurationNS   int64   `json:"duration_ns"`
	Steps        int     `json:"steps,omitempty"`

	LookupCalls       int `json:"lookup_calls"`
	LookupStructs     int `json:"lookup_structs"`
	LookupMismatches  int `json:"lookup_mismatches"`
	ResolveCalls      int `json:"resolve_calls"`
	ResolveStructs    int `json:"resolve_structs"`
	ResolveMismatches int `json:"resolve_mismatches"`

	// Memoization-cache effectiveness (logical lookup/resolve calls served
	// from the per-strategy caches); omitted when memoization is off.
	LookupCacheHits    int `json:"lookup_cache_hits,omitempty"`
	LookupCacheMisses  int `json:"lookup_cache_misses,omitempty"`
	ResolveCacheHits   int `json:"resolve_cache_hits,omitempty"`
	ResolveCacheMisses int `json:"resolve_cache_misses,omitempty"`

	// Constraint-graph layer counters. SCCs/cells are zero unless online
	// cycle elimination merged cells; waves, edge_batches and
	// fact_crossings are counted for every dense run, Offsets included.
	SCCsFound       int `json:"sccs_found,omitempty"`
	CellsMerged     int `json:"cells_merged,omitempty"`
	Waves           int `json:"waves,omitempty"`
	EdgeBatches     int `json:"edge_batches,omitempty"`
	FactCrossings   int `json:"fact_crossings,omitempty"`
	TraversalsSaved int `json:"traversals_saved,omitempty"`

	// Offline-prepass and set-interner counters, zero under the NoPrepass
	// ablation (or when the pair did not engage). The prep_* family is a
	// deterministic function of (program, strategy) and the intern_* family
	// of the wave schedule; peak_live_bytes depends on the machine, so
	// regression baselines zero it.
	PrepClasses   int    `json:"prep_classes,omitempty"`
	PrepCollapsed int    `json:"prep_collapsed,omitempty"`
	PrepChains    int    `json:"prep_chains,omitempty"`
	InternEpochs  int    `json:"intern_epochs,omitempty"`
	InternSets    int    `json:"intern_sets,omitempty"`
	InternBytes   int    `json:"intern_bytes,omitempty"`
	PeakLiveBytes uint64 `json:"peak_live_bytes,omitempty"`
}

// ProgramJSON is the JSON form of one benchmark program's measurements.
type ProgramJSON struct {
	Name          string             `json:"name"`
	LOC           int                `json:"loc"`
	NumStmts      int                `json:"num_stmts"`
	HasStructCast bool               `json:"has_struct_cast"`
	Runs          map[string]RunJSON `json:"runs"`
}

// Program converts a metrics.Program.
func Program(p *metrics.Program) ProgramJSON {
	out := ProgramJSON{
		Name:          p.Name,
		LOC:           p.LOC,
		NumStmts:      p.NumStmts,
		HasStructCast: p.HasStructCast,
		Runs:          make(map[string]RunJSON, len(p.Runs)),
	}
	for name, r := range p.Runs {
		out.Runs[name] = RunJSON{
			Strategy:           r.Strategy,
			AvgDerefSize:       r.AvgDerefSize,
			TotalFacts:         r.TotalFacts,
			DurationNS:         r.Duration.Nanoseconds(),
			Steps:              r.Steps,
			LookupCalls:        r.Recorder.LookupCalls,
			LookupStructs:      r.Recorder.LookupStructs,
			LookupMismatches:   r.Recorder.LookupMismatches,
			ResolveCalls:       r.Recorder.ResolveCalls,
			ResolveStructs:     r.Recorder.ResolveStructs,
			ResolveMismatches:  r.Recorder.ResolveMismatches,
			LookupCacheHits:    r.Recorder.LookupCacheHits,
			LookupCacheMisses:  r.Recorder.LookupCacheMisses,
			ResolveCacheHits:   r.Recorder.ResolveCacheHits,
			ResolveCacheMisses: r.Recorder.ResolveCacheMisses,
			SCCsFound:          r.Wave.SCCsFound,
			CellsMerged:        r.Wave.CellsMerged,
			Waves:              r.Wave.Waves,
			EdgeBatches:        r.Wave.EdgeBatches,
			FactCrossings:      r.Wave.FactCrossings,
			TraversalsSaved:    r.Wave.TraversalsSaved(),
			PrepClasses:        r.Wave.PrepClasses,
			PrepCollapsed:      r.Wave.PrepCollapsed,
			PrepChains:         r.Wave.PrepChains,
			InternEpochs:       r.Wave.InternEpochs,
			InternSets:         r.Wave.InternSets,
			InternBytes:        r.Wave.InternBytes,
			PeakLiveBytes:      r.Wave.PeakLiveBytes,
		}
	}
	return out
}

// Evaluation is the top-level JSON document for a full corpus run.
type Evaluation struct {
	ABI      string        `json:"abi"`
	Programs []ProgramJSON `json:"programs"`
}

// WriteEvaluation marshals a full evaluation to w (indented).
func WriteEvaluation(w io.Writer, abi string, progs []*metrics.Program) error {
	ev := Evaluation{ABI: abi}
	for _, p := range progs {
		ev.Programs = append(ev.Programs, Program(p))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ev)
}

// WriteResult marshals one analysis result to w (indented).
func WriteResult(w io.Writer, r *core.Result, prog *ir.Program, includeSets bool) error {
	doc := struct {
		ResultJSON
		Sites []SiteJSON `json:"sites"`
	}{Result(r, includeSets), Sites(r, prog)}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// DemandJSON is the wire form of one demand-vs-exhaustive measurement.
type DemandJSON struct {
	Program  string `json:"program"`
	Strategy string `json:"strategy"`
	QueryVar string `json:"query_var"`

	FirstQueryNS int64 `json:"first_query_ns"`
	WarmQueryNS  int64 `json:"warm_query_ns"`
	FullSolveNS  int64 `json:"full_solve_ns"`

	DemandCells    int  `json:"demand_cells"`
	FullCells      int  `json:"full_cells"`
	StmtsActivated int  `json:"stmts_activated"`
	TotalStmts     int  `json:"total_stmts"`
	MinCells       int  `json:"min_cells"`
	MaxCells       int  `json:"max_cells"`
	Queries        int  `json:"queries"`
	Fallback       bool `json:"fallback,omitempty"`
}

// WriteDemand marshals the demand-engine measurements to w (indented).
func WriteDemand(w io.Writer, abi string, ms []*metrics.DemandMeasurement) error {
	doc := struct {
		ABI    string       `json:"abi"`
		Demand []DemandJSON `json:"demand"`
	}{ABI: abi}
	for _, m := range ms {
		doc.Demand = append(doc.Demand, DemandJSON{
			Program:      m.Name,
			Strategy:     m.Strategy,
			QueryVar:     m.QueryVar,
			FirstQueryNS: m.FirstQuery.Nanoseconds(),
			WarmQueryNS:  m.WarmQuery.Nanoseconds(),
			FullSolveNS:  m.FullSolve.Nanoseconds(),

			DemandCells:    m.DemandCells,
			FullCells:      m.FullCells,
			StmtsActivated: m.StmtsActivated,
			TotalStmts:     m.TotalStmts,
			MinCells:       m.MinCells,
			MaxCells:       m.MaxCells,
			Queries:        m.Queries,
			Fallback:       m.Fallback,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

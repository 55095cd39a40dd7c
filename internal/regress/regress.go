// Package regress pins the evaluation's results: the solver is fully
// deterministic, so the fact counts, set sizes and instrumentation counters
// of every (program, instance) pair are stored as a JSON baseline and any
// drift — a soundness regression, a precision regression, or an unintended
// behavior change — fails the check.
//
// Regenerate the baseline after an intentional change with:
//
//	go run ./cmd/ptrregress -update
package regress

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/corpus"
	"repro/internal/export"
	"repro/internal/frontend"
	"repro/internal/metrics"
)

//go:embed baseline.json
var baselineJSON []byte

// BaselinePath is the on-disk location of the embedded baseline, relative
// to the repository root (used by -update).
const BaselinePath = "internal/regress/baseline.json"

// Measure runs the full corpus once (single repetition; timing is not
// compared) and returns the evaluation document. The corpus is fanned
// across GOMAXPROCS workers; the solver is deterministic and the runs are
// isolated, so the document is identical to a sequential measurement.
func Measure() (*export.Evaluation, error) {
	return MeasureParallel(0)
}

// MeasureParallel is Measure with an explicit worker count (0 = GOMAXPROCS,
// 1 = sequential).
func MeasureParallel(parallelism int) (*export.Evaluation, error) {
	return MeasureParallelContext(context.Background(), parallelism)
}

// MeasureParallelContext is MeasureParallel under a context: canceling it
// (e.g. a ptrregress -timeout) aborts the corpus run with a classified
// error instead of leaving a partial evaluation.
func MeasureParallelContext(ctx context.Context, parallelism int) (*export.Evaluation, error) {
	var specs []metrics.Spec
	for _, name := range corpus.SortedByGroup() {
		src, err := corpus.Source(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, metrics.Spec{Name: name, Sources: src})
	}
	progs, err := metrics.MeasureCorpusContext(ctx, specs, frontend.Options{},
		metrics.Options{Parallelism: parallelism})
	if err != nil {
		return nil, fmt.Errorf("measure corpus: %w", err)
	}
	ev := &export.Evaluation{ABI: "lp64"}
	for _, p := range progs {
		ev.Programs = append(ev.Programs, export.Program(p))
	}
	return ev, nil
}

// Baseline parses the embedded baseline; ok is false when none has been
// recorded yet.
func Baseline() (*export.Evaluation, bool, error) {
	if len(baselineJSON) == 0 || string(baselineJSON) == "{}\n" || string(baselineJSON) == "{}" {
		return nil, false, nil
	}
	var ev export.Evaluation
	if err := json.Unmarshal(baselineJSON, &ev); err != nil {
		return nil, false, fmt.Errorf("parse baseline: %w", err)
	}
	return &ev, true, nil
}

// Drift is one difference between the baseline and the current results.
type Drift struct {
	Program  string
	Strategy string
	Field    string
	Want     float64
	Got      float64
}

func (d Drift) String() string {
	return fmt.Sprintf("%s/%s: %s changed %v -> %v",
		d.Program, d.Strategy, d.Field, d.Want, d.Got)
}

// Compare returns every difference between the baseline and the current
// evaluation. Duration fields are ignored (machine-dependent).
func Compare(base, cur *export.Evaluation) []Drift {
	var drifts []Drift
	baseProgs := make(map[string]export.ProgramJSON)
	for _, p := range base.Programs {
		baseProgs[p.Name] = p
	}
	for _, p := range cur.Programs {
		bp, ok := baseProgs[p.Name]
		if !ok {
			drifts = append(drifts, Drift{Program: p.Name, Field: "new program"})
			continue
		}
		if bp.NumStmts != p.NumStmts {
			drifts = append(drifts, Drift{Program: p.Name, Field: "num_stmts",
				Want: float64(bp.NumStmts), Got: float64(p.NumStmts)})
		}
		if bp.HasStructCast != p.HasStructCast {
			drifts = append(drifts, Drift{Program: p.Name, Field: "has_struct_cast",
				Want: b2f(bp.HasStructCast), Got: b2f(p.HasStructCast)})
		}
		for name, run := range p.Runs {
			brun, ok := bp.Runs[name]
			if !ok {
				drifts = append(drifts, Drift{Program: p.Name, Strategy: name, Field: "new strategy"})
				continue
			}
			check := func(field string, want, got float64) {
				if math.Abs(want-got) > 1e-9 {
					drifts = append(drifts, Drift{
						Program: p.Name, Strategy: name, Field: field,
						Want: want, Got: got,
					})
				}
			}
			check("total_facts", float64(brun.TotalFacts), float64(run.TotalFacts))
			check("avg_deref_size", brun.AvgDerefSize, run.AvgDerefSize)
			check("lookup_calls", float64(brun.LookupCalls), float64(run.LookupCalls))
			check("lookup_mismatches", float64(brun.LookupMismatches), float64(run.LookupMismatches))
			check("resolve_calls", float64(brun.ResolveCalls), float64(run.ResolveCalls))
			check("resolve_mismatches", float64(brun.ResolveMismatches), float64(run.ResolveMismatches))
		}
	}
	// Removed programs.
	curNames := make(map[string]bool)
	for _, p := range cur.Programs {
		curNames[p.Name] = true
	}
	for _, p := range base.Programs {
		if !curNames[p.Name] {
			drifts = append(drifts, Drift{Program: p.Name, Field: "removed program"})
		}
	}
	return drifts
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Update writes the current evaluation to the baseline file at root/
// BaselinePath. Durations and peak_live_bytes are zeroed so baseline diffs
// stay clean: both depend on the machine. Every other counter is a
// deterministic function of (program, strategy) and stays pinned.
func Update(root string, ev *export.Evaluation) error {
	for i := range ev.Programs {
		for name, run := range ev.Programs[i].Runs {
			run.DurationNS = 0
			run.PeakLiveBytes = 0
			ev.Programs[i].Runs[name] = run
		}
	}
	f, err := os.Create(root + "/" + BaselinePath)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(ev)
}

// Run executes the full check, writing a report to w; it returns false when
// drift was found (or no baseline exists).
func Run(w io.Writer) (bool, error) {
	return RunContext(context.Background(), w, 0)
}

// RunContext is Run under a context and with an explicit corpus worker
// count (0 = GOMAXPROCS).
func RunContext(ctx context.Context, w io.Writer, parallelism int) (bool, error) {
	base, ok, err := Baseline()
	if err != nil {
		return false, err
	}
	if !ok {
		fmt.Fprintln(w, "no baseline recorded; run ptrregress -update")
		return false, nil
	}
	cur, err := MeasureParallelContext(ctx, parallelism)
	if err != nil {
		return false, err
	}
	drifts := Compare(base, cur)
	if len(drifts) == 0 {
		fmt.Fprintf(w, "baseline OK: %d programs, no drift\n", len(cur.Programs))
		return true, nil
	}
	fmt.Fprintf(w, "DRIFT: %d differences from baseline\n", len(drifts))
	for _, d := range drifts {
		fmt.Fprintln(w, " ", d)
	}
	return false, nil
}

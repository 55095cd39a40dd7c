package core

import (
	"context"
	"errors"

	"repro/internal/fault"
)

// Limits bounds the solver's resource use. Zero values mean "unlimited";
// the zero Limits reproduces the paper's unbounded fixpoint. When a limit
// trips, the solver stops and returns the facts derived so far — a partial
// result that is sound for everything already propagated (every recorded
// fact is justified by the inference rules; only further derivations are
// missing) — with Result.Incomplete describing the trip.
type Limits struct {
	// MaxSteps bounds worklist drains (cells popped from the worklist).
	MaxSteps int
	// MaxFacts bounds the total number of points-to edges, counted as
	// Result.TotalFacts counts them: a cell merged into a cycle's
	// representative counts the representative's set.
	MaxFacts int
	// MaxCells bounds the number of distinct cells holding facts, counted
	// the same way.
	MaxCells int
}

// StopReason is the machine-readable cause of an incomplete analysis.
type StopReason string

// Stop reasons.
const (
	StopMaxSteps StopReason = "max-steps"
	StopMaxFacts StopReason = "max-facts"
	StopMaxCells StopReason = "max-cells"
	StopCanceled StopReason = "canceled"
	StopDeadline StopReason = "deadline"
)

// Stop records why and where the solver stopped before reaching fixpoint.
type Stop struct {
	Reason StopReason
	Steps  int   // worklist drains performed
	Facts  int   // points-to edges the partial Result shows (TotalFacts)
	Cells  int   // cells with a non-empty set in the partial Result
	Limit  int   // the limit value that tripped; 0 for cancellation
	Err    error // the context's error for canceled/deadline stops
}

// Canceled reports whether the stop came from context cancellation (either
// an explicit cancel or a deadline) rather than a resource limit.
func (s *Stop) Canceled() bool {
	return s.Reason == StopCanceled || s.Reason == StopDeadline
}

func (s *Stop) String() string {
	if s == nil {
		return "complete"
	}
	return string(s.Reason)
}

// AsError converts the stop into its taxonomy error: KindLimit for tripped
// limits, KindCanceled for cancellation (wrapping the context error so
// errors.Is(err, context.Canceled / context.DeadlineExceeded) hold).
func (s *Stop) AsError() error {
	if s == nil {
		return nil
	}
	if s.Canceled() {
		return fault.New(fault.KindCanceled, "solve", "", s.Err)
	}
	return fault.Newf(fault.KindLimit, "solve", "",
		"%s: stopped at %d steps, %d facts, %d cells (limit %d)",
		s.Reason, s.Steps, s.Facts, s.Cells, s.Limit)
}

// stopFor classifies a context error into a stop reason.
func stopFor(err error) StopReason {
	if errors.Is(err, context.DeadlineExceeded) {
		return StopDeadline
	}
	return StopCanceled
}

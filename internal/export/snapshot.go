package export

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/pointsto"
)

// SnapshotVersion is the version of the Snapshot data model, carried in
// every encoding of it (the ptrsnap2 payload and the legacy plain-JSON
// form). Readers reject every other version, so a daemon restarted onto an
// incompatible spill directory re-solves instead of serving garbage. The
// byte layout is versioned separately, by the checked container's magic.
const SnapshotVersion = 1

// IncompleteJSON is the wire form of a partial-result marker: the reason a
// run stopped before fixpoint and the solver counters at the stop.
type IncompleteJSON struct {
	Reason string `json:"reason"`
	Steps  int    `json:"steps"`
	Facts  int    `json:"facts"`
	Cells  int    `json:"cells"`
	Limit  int    `json:"limit"`
}

// Snapshot is the serializable, queryable form of one solved analysis: the
// result cache's value type and the disk-spill wire format. It carries
// everything the query endpoints need — per-variable points-to sets, the
// full cell-level sets, the summary counters and the incompleteness marker —
// without retaining the IR or the solver state, so a cached program costs
// only its strings.
//
// Target slices are shared: names and cells with equal points-to sets hold
// the same slice, as the solver found them, and the ptrsnap2 container
// keeps that sharing on disk. A Snapshot is therefore read-only once built;
// copy a slice before modifying it.
type Snapshot struct {
	Version      int     `json:"version"`
	Strategy     string  `json:"strategy"`
	ABI          string  `json:"abi"`
	TotalFacts   int     `json:"total_facts"`
	DerefSites   int     `json:"deref_sites"`
	AvgDerefSize float64 `json:"avg_deref_size"`
	Steps        int     `json:"steps"`
	DurationNS   int64   `json:"duration_ns"`
	// Incomplete is nil for a run that reached fixpoint. A non-nil marker
	// means the recorded facts are sound but not exhaustive: negative
	// answers (empty sets, MayAlias == false) are not conclusive.
	Incomplete *IncompleteJSON `json:"incomplete,omitempty"`
	// Vars maps every queryable source-level name to its sorted points-to
	// targets (empty slice for a name whose set is empty). The target
	// strings are cell names; object names are uniquified by the front
	// end, so string equality coincides with cell equality. The slices are
	// shared between names with equal sets and must not be modified.
	Vars map[string][]string `json:"vars"`
	// Sets is the cell-level dump (named, non-temporary cells only). Its
	// Targets slices are shared like Vars'.
	Sets []PointsTo `json:"sets"`
}

// noTargets is the shared value of every empty Vars entry.
var noTargets = []string{}

// NewSnapshot captures a facade report into its wire form. abi names the
// layout the report was produced under ("" means the lp64 default). The
// snapshot shares the report's rendered target slices rather than copying
// every fact.
func NewSnapshot(r *pointsto.Report, abi string) *Snapshot {
	if abi == "" {
		abi = "lp64"
	}
	s := &Snapshot{
		Version:      SnapshotVersion,
		Strategy:     r.Strategy().String(),
		ABI:          abi,
		TotalFacts:   r.TotalFacts(),
		DerefSites:   r.NumDerefSites(),
		AvgDerefSize: r.DerefSetSize(),
		Steps:        r.Steps(),
		DurationNS:   r.Duration().Nanoseconds(),
		Vars:         make(map[string][]string),
	}
	r.EachPointsTo(func(name string, targets []string) {
		if targets == nil {
			targets = noTargets
		}
		s.Vars[name] = targets
	})
	r.EachSet(func(set pointsto.Set) {
		s.Sets = append(s.Sets, PointsTo{Cell: set.Cell, Targets: set.Targets})
	})
	if inc := r.Incomplete(); inc != nil {
		s.Incomplete = &IncompleteJSON{
			Reason: inc.Reason,
			Steps:  inc.Steps,
			Facts:  inc.Facts,
			Cells:  inc.Cells,
			Limit:  inc.Limit,
		}
	}
	return s
}

// HasVar reports whether name is a queryable variable or function of the
// snapshotted program (distinguishing "unknown name" from "empty set").
func (s *Snapshot) HasVar(name string) bool {
	_, ok := s.Vars[name]
	return ok
}

// PointsTo returns the sorted points-to targets of the named variable, nil
// for an unknown name. The slice is shared with the snapshot and must not
// be modified.
func (s *Snapshot) PointsTo(name string) []string {
	targets, ok := s.Vars[name]
	if !ok || len(targets) == 0 {
		return nil
	}
	return targets
}

// MayAlias reports whether the two named pointers may reference the same
// cell, by intersecting their recorded points-to sets. Unknown names never
// alias. Matches pointsto.Report.MayAlias on the snapshotted report.
func (s *Snapshot) MayAlias(a, b string) bool {
	sa := s.Vars[a]
	if len(sa) == 0 {
		return false
	}
	seen := make(map[string]bool, len(sa))
	for _, t := range sa {
		seen[t] = true
	}
	for _, t := range s.Vars[b] {
		if seen[t] {
			return true
		}
	}
	return false
}

// SizeBytes estimates the snapshot's retained memory (strings plus slice
// and map overhead); the store's byte budget is accounted in these units.
// A target slice shared by several names or cells is counted once.
func (s *Snapshot) SizeBytes() int {
	n := 256
	seen := make(map[sliceID]bool)
	targets := func(ts []string) {
		n += 24 // slice header
		id := idOf(ts)
		if len(ts) == 0 || seen[id] {
			return
		}
		seen[id] = true
		for _, t := range ts {
			n += 16 + len(t)
		}
	}
	for name, ts := range s.Vars {
		n += 48 + len(name)
		targets(ts)
	}
	for _, set := range s.Sets {
		n += 48 + len(set.Cell)
		targets(set.Targets)
	}
	return n
}

// sliceID identifies a target slice by its backing array and length: two
// slices with equal IDs are the same memory, so they hold equal targets.
type sliceID struct {
	first *string
	n     int
}

func idOf(ts []string) sliceID {
	if len(ts) == 0 {
		return sliceID{}
	}
	return sliceID{&ts[0], len(ts)}
}

// ReadSnapshot decodes one snapshot in the legacy plain-JSON form: the
// payload of ptrsnap1 containers and of headerless spills, which
// ReadSnapshotChecked still reads for warm restart. Its version is
// validated, and null or missing lists decode as they would from a
// ptrsnap2 container (empty target slices, nil Sets).
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("export: decode snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("export: snapshot version %d (want %d)", s.Version, SnapshotVersion)
	}
	if s.Vars == nil {
		s.Vars = make(map[string][]string)
	}
	for name, ts := range s.Vars {
		if ts == nil {
			s.Vars[name] = noTargets
		}
	}
	if len(s.Sets) == 0 {
		s.Sets = nil
	}
	for i := range s.Sets {
		if s.Sets[i].Targets == nil {
			s.Sets[i].Targets = noTargets
		}
	}
	return &s, nil
}

// SortedVarNames returns the snapshot's queryable names in sorted order.
func (s *Snapshot) SortedVarNames() []string {
	out := make([]string, 0, len(s.Vars))
	for name := range s.Vars {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

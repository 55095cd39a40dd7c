package export

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
)

// The ptrsnap2 payload is one compact JSON object that keeps the solver's
// set sharing: every distinct target name is written once, every distinct
// target list once (as indexes into the names), and names and cells refer
// to lists by index.
//
//	{"version":1,"strategy":...,"incomplete":{...},   header counters
//	 "targets":["g","main::a@7.next",...],             target-name table
//	 "sets":[[0],[1,2],[],...],                        distinct-set table
//	 "vars":[["a",1],["fp",3],...],                    [name, set], sorted by name
//	 "cells":[["gp",0],...]}                           [cell, set], in Sets order
//
// Set and target indexes are numbered in first-seen order over vars, then
// cells, so the bytes depend only on the snapshot's content, not on which
// of its slices happen to be shared.

// wireHeader is the payload's scalar part: the Snapshot fields other than
// Vars and Sets, under the same JSON names.
type wireHeader struct {
	Version      int             `json:"version"`
	Strategy     string          `json:"strategy"`
	ABI          string          `json:"abi"`
	TotalFacts   int             `json:"total_facts"`
	DerefSites   int             `json:"deref_sites"`
	AvgDerefSize float64         `json:"avg_deref_size"`
	Steps        int             `json:"steps"`
	DurationNS   int64           `json:"duration_ns"`
	Incomplete   *IncompleteJSON `json:"incomplete,omitempty"`
}

// wirePayload is the decoded ptrsnap2 payload, before its indexes are
// checked and resolved.
type wirePayload struct {
	wireHeader
	Targets []string   `json:"targets"`
	Sets    [][]int    `json:"sets"`
	Vars    []wirePair `json:"vars"`
	Cells   []wirePair `json:"cells"`
}

// wirePair is one [name, set] entry.
type wirePair struct {
	name string
	set  int
}

func (p *wirePair) UnmarshalJSON(b []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	if len(raw) != 2 {
		return fmt.Errorf("pair has %d elements, want [name, set]", len(raw))
	}
	if err := json.Unmarshal(raw[0], &p.name); err != nil {
		return err
	}
	return json.Unmarshal(raw[1], &p.set)
}

// setTable numbers a snapshot's distinct target lists and target names.
type setTable struct {
	byID      map[sliceID]int // slices already numbered, by identity
	byContent map[string]int  // every numbered list, by content
	targetIdx map[string]int  // target name → index in targets
	targets   []string        // target-name table
	sets      [][]int         // distinct-set table
	key       []byte          // content-key scratch
}

func newSetTable() *setTable {
	return &setTable{
		byID:      make(map[sliceID]int),
		byContent: make(map[string]int),
		targetIdx: make(map[string]int),
	}
}

// add returns the set index of ts, numbering it (and any new target names)
// on first sight. Shared slices are recognized by identity; other equal
// lists by a length-prefixed content key.
func (t *setTable) add(ts []string) int {
	id := idOf(ts)
	if i, ok := t.byID[id]; ok {
		return i
	}
	t.key = t.key[:0]
	for _, s := range ts {
		t.key = binary.AppendUvarint(t.key, uint64(len(s)))
		t.key = append(t.key, s...)
	}
	i, ok := t.byContent[string(t.key)]
	if !ok {
		i = len(t.sets)
		t.byContent[string(t.key)] = i
		idx := make([]int, len(ts))
		for j, s := range ts {
			k, ok := t.targetIdx[s]
			if !ok {
				k = len(t.targets)
				t.targetIdx[s] = k
				t.targets = append(t.targets, s)
			}
			idx[j] = k
		}
		t.sets = append(t.sets, idx)
	}
	t.byID[id] = i
	return i
}

// encodeV2 renders s as a ptrsnap2 payload.
func encodeV2(s *Snapshot) ([]byte, error) {
	head, err := json.Marshal(wireHeader{
		Version:      s.Version,
		Strategy:     s.Strategy,
		ABI:          s.ABI,
		TotalFacts:   s.TotalFacts,
		DerefSites:   s.DerefSites,
		AvgDerefSize: s.AvgDerefSize,
		Steps:        s.Steps,
		DurationNS:   s.DurationNS,
		Incomplete:   s.Incomplete,
	})
	if err != nil {
		return nil, fmt.Errorf("export: encode snapshot: %w", err)
	}
	names := s.SortedVarNames()
	t := newSetTable()
	varSets := make([]int, len(names))
	for i, name := range names {
		varSets[i] = t.add(s.Vars[name])
	}
	cellSets := make([]int, len(s.Sets))
	for i, set := range s.Sets {
		cellSets[i] = t.add(set.Targets)
	}

	buf := append(head[:len(head)-1], `,"targets":[`...)
	for i, name := range t.targets {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendString(buf, name)
	}
	buf = append(buf, `],"sets":[`...)
	for i, set := range t.sets {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for j, k := range set {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(k), 10)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `],"vars":`...)
	buf = appendPairs(buf, len(names), func(i int) string { return names[i] }, varSets)
	buf = append(buf, `,"cells":`...)
	buf = appendPairs(buf, len(s.Sets), func(i int) string { return s.Sets[i].Cell }, cellSets)
	return append(buf, "}\n"...), nil
}

// appendPairs appends a JSON array of [name(i), sets[i]] pairs.
func appendPairs(buf []byte, n int, name func(int) string, sets []int) []byte {
	buf = append(buf, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		buf = appendString(buf, name(i))
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(sets[i]), 10)
		buf = append(buf, ']')
	}
	return append(buf, ']')
}

// appendString appends s as a JSON string. Printable ASCII without quotes
// or backslashes (every name the front end produces) is copied as is;
// anything else goes through encoding/json, which escapes control
// characters and replaces invalid UTF-8 exactly as its decoder would.
func appendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(buf, q...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// decodeV2 parses and validates a ptrsnap2 payload. Every index must land
// inside its table and var names must be strictly ascending (so none
// repeats); names and cells referring to one set share its slice.
func decodeV2(payload []byte) (*Snapshot, error) {
	var w wirePayload
	if err := json.Unmarshal(payload, &w); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	if w.Version != SnapshotVersion {
		return nil, fmt.Errorf("snapshot version %d (want %d)", w.Version, SnapshotVersion)
	}
	sets := make([][]string, len(w.Sets))
	for i, idx := range w.Sets {
		ts := make([]string, len(idx))
		for j, k := range idx {
			if k < 0 || k >= len(w.Targets) {
				return nil, fmt.Errorf("set %d: target index %d out of range [0, %d)", i, k, len(w.Targets))
			}
			ts[j] = w.Targets[k]
		}
		sets[i] = ts
	}
	s := &Snapshot{
		Version:      w.Version,
		Strategy:     w.Strategy,
		ABI:          w.ABI,
		TotalFacts:   w.TotalFacts,
		DerefSites:   w.DerefSites,
		AvgDerefSize: w.AvgDerefSize,
		Steps:        w.Steps,
		DurationNS:   w.DurationNS,
		Incomplete:   w.Incomplete,
		Vars:         make(map[string][]string, len(w.Vars)),
	}
	for i, p := range w.Vars {
		if i > 0 && p.name <= w.Vars[i-1].name {
			return nil, fmt.Errorf("var %q out of order or repeated after %q", p.name, w.Vars[i-1].name)
		}
		if p.set < 0 || p.set >= len(sets) {
			return nil, fmt.Errorf("var %q: set index %d out of range [0, %d)", p.name, p.set, len(sets))
		}
		s.Vars[p.name] = sets[p.set]
	}
	if len(w.Cells) > 0 {
		s.Sets = make([]PointsTo, len(w.Cells))
	}
	for i, p := range w.Cells {
		if p.set < 0 || p.set >= len(sets) {
			return nil, fmt.Errorf("cell %q: set index %d out of range [0, %d)", p.name, p.set, len(sets))
		}
		s.Sets[i] = PointsTo{Cell: p.name, Targets: sets[p.set]}
	}
	return s, nil
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// Layers, in the order server.solveSnapshot runs them. A span's layer is
// the prefix of its name before the first dot.
var layers = []string{"server", "store", "frontend", "core", "incr", "export"}

// span is one timed call into a layer. Spans of one request unit share req;
// parent is the enclosing span's id (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"` // heap bytes allocated inside the span
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// count is a work counter recorded at a span boundary.
type count struct {
	Req   int     `json:"req"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// tracer keeps spans and counts in memory until the run ends.
type tracer struct {
	t0     time.Time
	req    int
	spans  []span
	counts []count
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name, Alloc: t.allocs()})
	s := &t.spans[len(t.spans)-1]
	s.Start = int64(time.Since(t.t0))
	return s.ID
}

// end closes span id.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	s := &t.spans[id-1]
	s.End = now
	s.Alloc = t.allocs() - s.Alloc
}

func (t *tracer) count(name string, v float64) {
	t.counts = append(t.counts, count{Req: t.req, Name: name, Value: v})
}

// write dumps the trace as JSON lines: spans first, then counts.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, c := range t.counts {
		if err := enc.Encode(c); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// ledger is the per-layer view derived from a trace: self times (a span's
// duration minus what its children cover) and self allocations, summed by
// layer over the request units' roots, plus inclusive totals and counts by
// name.
type ledger struct {
	requests  int
	walls     []time.Duration // per request unit: the sum of its roots
	self      map[string]time.Duration
	selfAlloc map[string]uint64
	total     map[string]time.Duration
	calls     map[string]int
	counts    map[string]float64
}

// ledgerOf derives the ledger over the spans whose root name inLedger
// accepts; other trees (side replays, queries outside the request unit)
// still feed the by-name totals.
func ledgerOf(t *tracer, inLedger func(root string) bool) *ledger {
	l := &ledger{
		self:      make(map[string]time.Duration),
		selfAlloc: make(map[string]uint64),
		total:     make(map[string]time.Duration),
		calls:     make(map[string]int),
		counts:    make(map[string]float64),
	}
	childDur := make([]time.Duration, len(t.spans)+1)
	childAlloc := make([]uint64, len(t.spans)+1)
	root := make([]int, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childDur[s.Parent] += s.dur()
			childAlloc[s.Parent] += s.Alloc
			root[s.ID] = root[s.Parent]
		} else {
			root[s.ID] = s.ID
		}
	}
	wallByReq := make(map[int]time.Duration)
	for _, s := range t.spans {
		l.total[s.Name] += s.dur()
		l.calls[s.Name]++
		if !inLedger(t.spans[root[s.ID]-1].Name) {
			continue
		}
		l.self[s.layer()] += s.dur() - childDur[s.ID]
		l.selfAlloc[s.layer()] += s.Alloc - childAlloc[s.ID]
		if s.Parent == 0 {
			wallByReq[s.Req] += s.dur()
		}
	}
	for _, c := range t.counts {
		l.counts[c.Name] += c.Value
	}
	reqs := make([]int, 0, len(wallByReq))
	for req := range wallByReq {
		reqs = append(reqs, req)
	}
	sort.Ints(reqs)
	for _, req := range reqs {
		l.walls = append(l.walls, wallByReq[req])
	}
	l.requests = len(l.walls)
	return l
}

// perReq divides a total by the number of request units (0 when none ran).
func (l *ledger) perReq(v float64) float64 {
	if l.requests == 0 {
		return 0
	}
	return v / float64(l.requests)
}

// share is a layer's self time as a fraction of the summed request walls.
func (l *ledger) share(layer string) float64 {
	var wall time.Duration
	for _, w := range l.walls {
		wall += w
	}
	if wall == 0 {
		return 0
	}
	return float64(l.self[layer]) / float64(wall)
}

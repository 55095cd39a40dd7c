package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"sort"
	"strings"

	"repro/internal/cc/layout"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/server"
	"repro/pointsto"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wCorpusCold  = "corpus_cold"
	wHubWide     = "hub_wide"
	wSessionEdit = "session_edit"
)

var workloadNames = []string{wCorpusCold, wHubWide, wSessionEdit}

// Shape knobs. hubParams is the hub_wide program shape (≈1,250 IR
// statements, ≈28k facts, ≈0.8 MB checked snapshot); the seed field is
// filled per program from the workload seed.
var hubParams = corpus.LargeParams{NChains: 24, ChainLen: 30, NTargets: 128, NFields: 4, CrossEvery: 16}

const (
	hubPrograms   = 8  // distinct hub programs per run; requests cycle through them
	editsPerChain = 6  // corpus.Edits per program on session_edit
	coldQueries   = 4  // snapshot-answered queries after each cold analyze
	editQueries   = 4  // demand-answered queries per edit cycle
	queryPool     = 32 // seeded queries per input; successive visits rotate through them
)

// input is one program variant a request can send: its sources (before the
// request's unique comment line), the instance, and the reference answer.
type input struct {
	name     string
	sources  []server.SourceJSON
	strategy pointsto.Strategy
	exp      *expected
	queries  []query // the pool; see queriesFor
	perVisit int     // queries sent per request unit
	chain    int     // session_edit: the program chain this variant belongs to; -1 otherwise
}

// queriesFor returns the queries of the input's visit-th request unit:
// the next perVisit queries of the pool, wrapping around.
func (in *input) queriesFor(visit int) []query {
	out := make([]query, in.perVisit)
	for j := range out {
		out[j] = in.queries[(visit*in.perVisit+j)%len(in.queries)]
	}
	return out
}

// expected is the reference answer for one input, computed at set-up by
// core.AnalyzeReference: a digest of every name's sorted targets, the fact
// count, and the exhaustive dense solve's cell count (the denominator of
// the demand-slice ratio).
type expected struct {
	totalFacts int
	vars       map[string]uint64
	names      uint64 // digest of the sorted name list
	cells      int
}

// query is one seeded point query with its reference answer.
type query struct {
	op      string // server.OpPointsTo or server.OpMayAlias
	a, b    string
	targets []string
	alias   bool
}

// bench is one workload's generated inputs and request order. Everything
// in it derives from the workload seed.
type bench struct {
	workload string
	seed     uint64
	inputs   []*input
	order    []int // request i sends inputs[order[i%len(order)]]
	openers  []int // session_edit: chain c opens with a cold analyze of inputs[openers[c]]
	// rssAt is the request count at which peak_rss_mb is read: the server
	// retains results as it goes, so a fixed amount of work, not a fixed
	// time, keeps the peak independent of speed.
	rssAt int
}

// rssAt per workload: about half of what one 30-second run completes.
var rssAt = map[string]int{wCorpusCold: 1200, wHubWide: 250, wSessionEdit: 800}

// newBench generates the workload's inputs and computes every reference
// answer.
func newBench(workload string, seed uint64) (*bench, error) {
	b := &bench{workload: workload, seed: seed, rssAt: rssAt[workload]}
	rng := rand.New(rand.NewPCG(seed, 0x70657266))
	var err error
	switch workload {
	case wCorpusCold:
		err = b.genCorpusCold(rng)
	case wHubWide:
		err = b.genHubWide(rng)
	case wSessionEdit:
		err = b.genSessionEdit(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

func (b *bench) genCorpusCold(rng *rand.Rand) error {
	for _, prog := range corpus.Names() {
		src, err := corpus.Source(prog)
		if err != nil {
			return err
		}
		for _, st := range pointsto.Strategies() {
			in, err := newInput(prog+"/"+st.String(), toJSON(src), st, -1, coldQueries, rng)
			if err != nil {
				return err
			}
			b.inputs = append(b.inputs, in)
		}
	}
	b.order = rng.Perm(len(b.inputs))
	return nil
}

func (b *bench) genHubWide(rng *rand.Rand) error {
	for i := 0; i < hubPrograms; i++ {
		p := hubParams
		p.Seed = rng.Uint32()
		in, err := newInput(fmt.Sprintf("hub#%d", p.Seed), toJSON(corpus.GenerateLarge(p)), pointsto.CIS, -1, coldQueries, rng)
		if err != nil {
			return err
		}
		b.inputs = append(b.inputs, in)
	}
	b.order = rng.Perm(len(b.inputs))
	return nil
}

// genSessionEdit builds one chain per corpus program: the original opens
// it, and edit cycles walk corpus.Edits variants round-robin across
// programs, so consecutive cycles of one chain are len(programs) apart.
func (b *bench) genSessionEdit(rng *rand.Rand) error {
	var chains [][]int
	for c, prog := range corpus.Names() {
		src, err := corpus.Source(prog)
		if err != nil {
			return err
		}
		orig, err := newInput(prog, toJSON(src), pointsto.CIS, c, editQueries, rng)
		if err != nil {
			return err
		}
		b.openers = append(b.openers, len(b.inputs))
		b.inputs = append(b.inputs, orig)
		edits := corpus.Edits(src[0].Text, rng.Uint32(), editsPerChain)
		if len(edits) == 0 {
			return fmt.Errorf("corpus program %s offers no edits", prog)
		}
		var chain []int
		for _, e := range edits {
			in, err := newInput(prog+"/"+e.String(), []server.SourceJSON{{Name: src[0].Name, Text: e.Text}}, pointsto.CIS, c, editQueries, rng)
			if err != nil {
				return err
			}
			chain = append(chain, len(b.inputs))
			b.inputs = append(b.inputs, in)
		}
		chains = append(chains, chain)
	}
	for k := 0; k < editsPerChain; k++ {
		for _, chain := range chains {
			b.order = append(b.order, chain[k%len(chain)])
		}
	}
	return nil
}

func toJSON(src []frontend.Source) []server.SourceJSON {
	out := make([]server.SourceJSON, len(src))
	for i, s := range src {
		out[i] = server.SourceJSON{Name: s.Name, Text: s.Text}
	}
	return out
}

// newInput runs the front end and the reference solver over one program
// variant and picks its seeded queries.
func newInput(name string, sources []server.SourceJSON, st pointsto.Strategy, chain, nq int, rng *rand.Rand) (*input, error) {
	fsrc := make([]frontend.Source, len(sources))
	for i, s := range sources {
		fsrc[i] = frontend.Source{Name: s.Name, Text: s.Text}
	}
	res, err := frontend.Load(fsrc, frontend.Options{ABI: layout.LP64})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	ref := core.AnalyzeReference(res.IR, refStrategy(st, res.Layout), core.Options{})
	if ref.Incomplete != nil {
		return nil, fmt.Errorf("%s: reference solve incomplete", name)
	}
	sets := nameSets(res.IR, ref)
	names := make([]string, 0, len(sets))
	exp := &expected{totalFacts: ref.TotalFacts(), vars: make(map[string]uint64, len(sets))}
	for n, targets := range sets {
		names = append(names, n)
		exp.vars[n] = digest(targets)
	}
	sort.Strings(names)
	exp.names = digest(names)
	if chain >= 0 {
		// The demand-slice ratio's denominator: every cell the exhaustive
		// dense solver touches.
		exp.cells = core.Analyze(res.IR, refStrategy(st, res.Layout)).NumCells()
	}
	in := &input{name: name, sources: sources, strategy: st, exp: exp, chain: chain, perVisit: nq}
	in.queries = pickQueries(names, sets, queryPool, rng)
	return in, nil
}

// pickQueries draws nq queries, alternating points-to and alias, from the
// names whose sets are non-empty (falling back to all names).
func pickQueries(names []string, sets map[string][]string, nq int, rng *rand.Rand) []query {
	var pool []string
	for _, n := range names {
		if len(sets[n]) > 0 {
			pool = append(pool, n)
		}
	}
	if len(pool) == 0 {
		pool = names
	}
	out := make([]query, nq)
	for i := range out {
		a := pool[rng.IntN(len(pool))]
		if i%2 == 0 {
			out[i] = query{op: server.OpPointsTo, a: a, targets: sets[a]}
			continue
		}
		bn := pool[rng.IntN(len(pool))]
		out[i] = query{op: server.OpMayAlias, a: a, b: bn, alias: intersects(sets[a], sets[bn])}
	}
	return out
}

// refStrategy builds the core instance a pointsto.Strategy names, as the
// facade does.
func refStrategy(st pointsto.Strategy, lay *layout.Engine) core.Strategy {
	switch st {
	case pointsto.CollapseAlways:
		return core.NewCollapseAlways()
	case pointsto.CollapseOnCast:
		return core.NewCollapseOnCast()
	case pointsto.Offsets:
		return core.NewOffsets(lay)
	default:
		return core.NewCIS()
	}
}

// nameSets renders the reference result the way pointsto.Report.PointsTo
// does: every source-level name maps to the sorted union of its objects'
// base-cell sets.
func nameSets(prog *ir.Program, r *core.Result) map[string][]string {
	byName := make(map[string][]*ir.Object)
	for _, o := range prog.Objects {
		if o.Sym != nil && o.Sym.Name != "" {
			byName[o.Sym.Name] = append(byName[o.Sym.Name], o)
		} else if o.Name != "" {
			byName[o.Name] = append(byName[o.Name], o)
		}
	}
	out := make(map[string][]string, len(byName))
	for name, objs := range byName {
		union := make(core.CellSet)
		for _, o := range objs {
			for c := range r.PointsTo(o, nil) {
				union.Add(c)
			}
		}
		targets := []string{}
		for _, c := range union.Sorted() {
			targets = append(targets, c.String())
		}
		out[name] = targets
	}
	return out
}

// digest hashes a string list, order-sensitive; names and cell strings
// never contain NUL, so NUL-terminating each element is unambiguous.
func digest(list []string) uint64 {
	h := fnv.New64a()
	for _, s := range list {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func intersects(a, b []string) bool {
	seen := make(map[string]bool, len(a))
	for _, s := range a {
		seen[s] = true
	}
	for _, s := range b {
		if seen[s] {
			return true
		}
	}
	return false
}

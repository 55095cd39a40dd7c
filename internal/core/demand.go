package core

import (
	"context"
	"errors"

	"repro/internal/ir"
)

// This file is the query-directed solver: instead of seeding every statement
// and running the whole-program fixpoint, a Demand engine activates only the
// statements that can contribute facts to the cells a client actually asks
// about, walking the constraint graph backwards from the queried objects.
//
// The slice is computed at object granularity. Demanding an object o means
// "every cell of o must reach its full-fixpoint points-to set", which
// requires activating
//
//   - every statement whose destination is o (AddrOf, Copy, AddrField,
//     Load, PtrArith, and Call statements binding a return value into o);
//   - Store and MemCopy statements that can write into o. Once any
//     address-taken object (the Src of some AddrOf — the only objects a
//     store can reach) is demanded, every store's pointer operand is
//     demanded so its slice resolves where the store writes; the store
//     itself is then activated only when that points-to set actually
//     reaches a demanded object (the sweep in pump). Tracking the pointer
//     costs a pointer-chain slice; firing the store costs the full
//     premise slice of its value operand — the distinction is what keeps
//     a query's slice from swallowing every store in the program;
//   - Call statements that can bind into o when o is a parameter or
//     varargs object: same lazy scheme, with the call's function-pointer
//     operand demanded up front and the call activated only when its
//     points-to set reaches a function whose parameters are demanded.
//
// Activation is initStmt, unchanged: the watch/replay machinery already
// makes late registration equivalent to seed-time registration (watch
// replays the facts present at the watched cell, addEdge replays the facts
// at an edge's source), so a statement activated mid-run derives exactly
// what it would have derived from the start. Activating a statement demands
// its premise operands (the watched pointers), and every copy edge the
// activated rules add is observed through the solver's noteEdge hook: an
// edge into a demanded object demands the edge's source object; an edge
// into a not-(yet-)demanded object is parked in revDeps and replayed if
// that object is demanded by a later query.
//
// Soundness of the slice rests on two properties of the framework. First,
// strategies are pure: Normalize/Lookup/Resolve depend only on types and
// cells, never on solver state, so a rule fired in the slice derives the
// same facts it derives in the full run. Second, the fixpoint is a least
// fixpoint of monotone rules, so any schedule that fires every rule
// instance relevant to the demanded cells converges to the same sets for
// those cells — which is what the corpus-wide differential test pins,
// byte for byte, against the exhaustive solver.
//
// The engine memoizes across queries: demanded objects, activated
// statements, and all derived facts persist, so a later query pays only for
// the part of its slice the earlier queries have not already explored. Each
// pump drains through the solver's wave loop with cycle elimination off
// (find() is the identity), so every wave is a residual pass over the dirty
// cells in id order — the slice is expected to be small, and merging would
// complicate the invariants for no measured gain.

// ErrDemandBudget reports that a query's slice exceeded the engine's
// activation budget; the caller should fall back to the exhaustive solver.
var ErrDemandBudget = errors.New("demand: slice budget exceeded")

// DemandStats counts the demand engine's cumulative work.
type DemandStats struct {
	// Queries is the number of Query calls; MemoHits counts those fully
	// answered by previously explored slices (no new activation and no new
	// propagation).
	Queries  int
	MemoHits int
	// ObjectsDemanded and StmtsActivated size the explored slice;
	// CellsVisited is the number of cells interned by it (the full solve's
	// Result.NumCells is the comparable whole-program figure).
	ObjectsDemanded int
	StmtsActivated  int
	CellsVisited    int
	// TotalStmts is the program's statement count (the budget denominator).
	TotalStmts int
}

// Demand is the query-directed solver. It is not safe for concurrent use;
// callers (the pointsto.Session) serialize queries.
type Demand struct {
	s      *solver
	budget int // max statement activations; <= 0 means unlimited

	demanded map[*ir.Object]bool
	queue    []*ir.Object

	// Static statement indexes, built once from the program.
	byDst      map[*ir.Object][]*ir.Stmt // statements writing facts/edges into the object
	addrTaken  map[*ir.Object]bool       // objects appearing as AddrOf sources (possible pointees)
	paramOwner map[*ir.Object]*ir.Object // parameter/varargs object → its function's object

	// Statically resolved statements: a store or call whose pointer operand
	// is a single-definition AddrOf temp has a known target, so it joins a
	// per-object index instead of the tracked pools below.
	storesInto  map[*ir.Object][]*ir.Stmt // object → stores that write into it
	callsToFunc map[*ir.Object][]*ir.Stmt // function object → direct calls to it
	dynStores   []*ir.Stmt                // stores through computed pointers
	dynCalls    []*ir.Stmt                // calls through computed function pointers

	// revDeps parks copy edges whose destination object was not demanded
	// when the edge appeared: dst object → source objects to demand if dst
	// ever is. Entries are consumed (deleted) on demand.
	revDeps map[*ir.Object][]*ir.Object

	// Lazy store/call activation: tracked statements have their pointer
	// operand demanded but fire only when the sweep finds that pointer
	// reaching a demanded object (stores) or a wanted function (calls).
	pendingStores []*ir.Stmt
	pendingCalls  []*ir.Stmt
	wantFuncs     map[*ir.Object]bool // function objects with demanded params

	activated         map[*ir.Stmt]bool
	storesOn, callsOn bool
	poisoned          bool
	stats             DemandStats
}

// NewDemand builds a demand engine over the program. budget bounds the
// number of statement activations any query sequence may accumulate before
// queries fail with ErrDemandBudget (<= 0 means unlimited).
//
// Options.UseUnknown is rejected by construction (Result.Misuses is a
// whole-program observable a slice cannot reproduce); Limits are ignored —
// governance of a demand query is its context plus the budget.
func NewDemand(prog *ir.Program, strat Strategy, opts Options, budget int) *Demand {
	opts.UseUnknown = false
	opts.Limits = Limits{}
	s := newSolver(context.Background(), prog, strat, opts)
	// The prepass models the full static graph, but a demand solver only
	// materializes the demanded slice of it; the slice is small, and
	// merging across pumps would complicate the memoized invariants.
	// Disable cycle elimination, the prepass and the interner.
	s.cycleElim = false
	s.prep, s.intern = nil, nil
	d := &Demand{
		s:           s,
		budget:      budget,
		demanded:    make(map[*ir.Object]bool),
		byDst:       make(map[*ir.Object][]*ir.Stmt),
		addrTaken:   make(map[*ir.Object]bool),
		paramOwner:  make(map[*ir.Object]*ir.Object),
		storesInto:  make(map[*ir.Object][]*ir.Stmt),
		callsToFunc: make(map[*ir.Object][]*ir.Stmt),
		wantFuncs:   make(map[*ir.Object]bool),
		revDeps:     make(map[*ir.Object][]*ir.Object),
		activated:   make(map[*ir.Stmt]bool, len(prog.Stmts)),
	}
	d.stats.TotalStmts = len(prog.Stmts)
	s.noteEdge = d.noteEdgeHook
	var stores, calls []*ir.Stmt
	for _, st := range prog.Stmts {
		switch st.Op {
		case ir.OpAddrOf:
			d.byDst[st.Dst] = append(d.byDst[st.Dst], st)
			d.addrTaken[st.Src] = true
		case ir.OpCopy, ir.OpAddrField, ir.OpLoad, ir.OpPtrArith:
			d.byDst[st.Dst] = append(d.byDst[st.Dst], st)
		case ir.OpStore, ir.OpMemCopy:
			stores = append(stores, st)
		case ir.OpCall:
			calls = append(calls, st)
			if st.Dst != nil {
				d.byDst[st.Dst] = append(d.byDst[st.Dst], st)
			}
		}
	}
	for _, fn := range prog.Funcs {
		if fn.Obj == nil {
			continue
		}
		for _, p := range fn.Params {
			if p != nil {
				d.paramOwner[p] = fn.Obj
			}
		}
		if fn.Varargs != nil {
			d.paramOwner[fn.Varargs] = fn.Obj
		}
	}
	// Split stores and calls into statically resolved (pointer operand is a
	// single-definition AddrOf temp, so the target is known without
	// solving) and dynamic (tracked lazily, fired by the sweep).
	for _, st := range stores {
		if o := d.staticTarget(st.Ptr); o != nil {
			d.storesInto[o] = append(d.storesInto[o], st)
		} else {
			d.dynStores = append(d.dynStores, st)
		}
	}
	for _, st := range calls {
		if o := d.staticTarget(st.Ptr); o != nil && o.Kind == ir.ObjFunc {
			d.callsToFunc[o] = append(d.callsToFunc[o], st)
		} else {
			d.dynCalls = append(d.dynCalls, st)
		}
	}
	return d
}

// staticTarget resolves a pointer operand to its one possible pointee, or
// nil when the pointer is computed. A normalization temp written by exactly
// one statement — an AddrOf — and never address-taken itself can only ever
// point to that AddrOf's source: temps are call-site/expression-local, so
// no store, call binding or second definition can widen the set.
func (d *Demand) staticTarget(p *ir.Object) *ir.Object {
	if p == nil || !p.IsTemp() || d.addrTaken[p] || d.paramOwner[p] != nil {
		return nil
	}
	defs := d.byDst[p]
	if len(defs) != 1 || defs[0].Op != ir.OpAddrOf {
		return nil
	}
	return defs[0].Src
}

// Poisoned reports whether a canceled or budget-tripped query froze the
// engine. A poisoned engine answers no further queries; the owner discards
// it (and rebuilds, or falls back to the exhaustive solver).
func (d *Demand) Poisoned() bool { return d.poisoned }

// Stats returns the cumulative slice counters.
func (d *Demand) Stats() DemandStats {
	st := d.stats
	st.CellsVisited = d.s.table.Len()
	return st
}

// noteEdgeHook observes one deduplicated copy edge (see solver.noteEdge).
func (d *Demand) noteEdgeHook(dst, src *ir.Object) {
	if d.demanded[dst] {
		d.demand(src)
	} else {
		d.revDeps[dst] = append(d.revDeps[dst], src)
	}
}

// demand marks an object's cells as needed and queues its expansion.
func (d *Demand) demand(o *ir.Object) {
	if o == nil || d.demanded[o] {
		return
	}
	d.demanded[o] = true
	d.queue = append(d.queue, o)
}

// activate seeds one statement (idempotently) and demands its premise
// operands — the pointers whose points-to sets gate the statement's rule.
func (d *Demand) activate(st *ir.Stmt) error {
	if d.activated[st] {
		return nil
	}
	d.activated[st] = true
	d.stats.StmtsActivated++
	if d.budget > 0 && d.stats.StmtsActivated > d.budget {
		d.poisoned = true
		return ErrDemandBudget
	}
	d.s.initStmt(st)
	switch st.Op {
	case ir.OpAddrField, ir.OpLoad, ir.OpCall:
		d.demand(st.Ptr)
	case ir.OpStore:
		if st.Src != nil {
			d.demand(st.Ptr)
		}
	case ir.OpMemCopy:
		d.demand(st.Ptr)
		d.demand(st.Src)
	case ir.OpPtrArith:
		d.demand(st.Src)
	}
	return nil
}

// expand activates everything the newly demanded object requires.
func (d *Demand) expand(o *ir.Object) error {
	d.stats.ObjectsDemanded++
	for _, st := range d.byDst[o] {
		if err := d.activate(st); err != nil {
			return err
		}
	}
	// Stores with a statically known target fire exactly when that target
	// is demanded; the rest are tracked once any address-taken object is
	// demanded, and fired by the sweep when their pointer's points-to set
	// reaches a demanded object.
	for _, st := range d.storesInto[o] {
		if err := d.activate(st); err != nil {
			return err
		}
	}
	if d.addrTaken[o] && !d.storesOn {
		d.storesOn = true
		for _, st := range d.dynStores {
			d.track(st, &d.pendingStores)
		}
	}
	// Same split for calls: direct calls to the demanded parameter's
	// function fire immediately, indirect calls are tracked and fired when
	// their function pointer reaches a wanted function.
	if fo := d.paramOwner[o]; fo != nil && !d.wantFuncs[fo] {
		d.wantFuncs[fo] = true
		for _, st := range d.callsToFunc[fo] {
			if err := d.activate(st); err != nil {
				return err
			}
		}
		if !d.callsOn {
			d.callsOn = true
			for _, st := range d.dynCalls {
				d.track(st, &d.pendingCalls)
			}
		}
	}
	if deps := d.revDeps[o]; deps != nil {
		delete(d.revDeps, o)
		for _, src := range deps {
			d.demand(src)
		}
	}
	return nil
}

// track demands a statement's pointer operand and parks the statement for
// the sweep; a statement with no pointer operand just stays parked (it can
// never become eligible, and an already-activated one is skipped here and
// again by activate's idempotence).
func (d *Demand) track(st *ir.Stmt, pending *[]*ir.Stmt) {
	if d.activated[st] {
		return
	}
	d.demand(st.Ptr)
	*pending = append(*pending, st)
}

// sweep activates every tracked store whose pointer reaches a demanded
// object and every tracked call whose pointer reaches a wanted function,
// returning how many statements fired.
func (d *Demand) sweep() (int, error) {
	fired := 0
	stores := d.pendingStores[:0]
	for _, st := range d.pendingStores {
		switch {
		case d.activated[st]:
			// Fired through byDst (a call's Dst) or an earlier sweep pass.
		case d.reaches(st.Ptr, d.demanded):
			if err := d.activate(st); err != nil {
				return fired, err
			}
			fired++
		default:
			stores = append(stores, st)
		}
	}
	d.pendingStores = stores
	calls := d.pendingCalls[:0]
	for _, st := range d.pendingCalls {
		switch {
		case d.activated[st]:
		case d.reaches(st.Ptr, d.wantFuncs):
			if err := d.activate(st); err != nil {
				return fired, err
			}
			fired++
		default:
			calls = append(calls, st)
		}
	}
	d.pendingCalls = calls
	return fired, nil
}

// reaches reports whether the pointer's current points-to set contains a
// cell of any object in want.
func (d *Demand) reaches(p *ir.Object, want map[*ir.Object]bool) bool {
	if p == nil {
		return false
	}
	s := d.s
	id := s.find(s.normID(p))
	hit := false
	s.pts[id].Iterate(func(t CellID) {
		if !hit && want[s.table.Cell(t).Obj] {
			hit = true
		}
	})
	return hit
}

// Query drives the slice containing objs to fixpoint: after a nil return,
// every cell of every demanded object holds exactly its full-fixpoint
// points-to set. Cancellation (via ctx) and a tripped budget poison the
// engine — partially propagated state is not resumable — and return the
// classified error; the memoized state of earlier completed queries is
// never served from a poisoned engine, because the owner discards it.
func (d *Demand) Query(ctx context.Context, objs ...*ir.Object) error {
	if d.poisoned {
		if d.s.stop != nil {
			return d.s.stop.AsError()
		}
		return ErrDemandBudget
	}
	d.stats.Queries++
	fresh := false
	for _, o := range objs {
		if o != nil && !d.demanded[o] {
			fresh = true
			d.demand(o)
		}
	}
	if !fresh && len(d.s.dirty) == 0 {
		d.stats.MemoHits++
		return nil
	}
	return d.pump(ctx)
}

// pump alternates slice expansion, the solver's propagation loop, and the
// lazy store/call sweep until all three are quiescent.
func (d *Demand) pump(ctx context.Context) error {
	s := d.s
	s.ctx = ctx
	for {
		for len(d.queue) > 0 {
			if s.checkCtx(); s.stop != nil {
				break
			}
			o := d.queue[len(d.queue)-1]
			d.queue = d.queue[:len(d.queue)-1]
			if err := d.expand(o); err != nil {
				return err
			}
		}
		s.runWaves()
		if s.stop != nil {
			// Cancellation freezes the solver permanently (addFact refuses
			// new facts); the worklist state cannot be resumed soundly.
			d.poisoned = true
			return s.stop.AsError()
		}
		fired, err := d.sweep()
		if err != nil {
			return err
		}
		if fired == 0 && len(d.queue) == 0 && len(s.dirty) == 0 {
			return nil
		}
	}
}

// PointsToObj returns the points-to set of the object's base cell
// (Normalize(obj, nil)), equal at slice fixpoint to the exhaustive
// Result.PointsTo for every demanded object. The returned set is freshly
// allocated.
func (d *Demand) PointsToObj(obj *ir.Object) CellSet {
	s := d.s
	id := s.normID(obj)
	set := &s.pts[id]
	cs := make(CellSet, set.Len())
	set.Iterate(func(t CellID) { cs[s.table.Cell(t)] = struct{}{} })
	return cs
}

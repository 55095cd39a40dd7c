package core

// FuzzSolve drives the worklist solver, under all four strategies, over
// arbitrary programs in the paper's five normalized statement forms. The
// statements are decoded from the fuzz input over a fixed typed universe
// (two overlapping structs, scalar pointers, a double pointer), so every
// generated program respects the IR's invariants — any panic, hang or
// disagreement with the reference solver the fuzzer finds is a real solver
// bug, not a malformed-program artifact.

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cc/layout"
	"repro/internal/cc/types"
	"repro/internal/ir"
)

// fuzzUniverse is the fixed object pool fuzz programs draw from.
type fuzzUniverse struct {
	lay  *layout.Engine
	objs []*ir.Object
}

func newFuzzUniverse() *fuzzUniverse {
	u := types.NewUniverse()
	intT := u.Basic(types.Int)
	pInt := types.PointerTo(intT)
	ppInt := types.PointerTo(pInt)
	pChar := types.PointerTo(u.Basic(types.Char))

	structS := u.NewRecord("S", false)
	structS.Record.Fields = []types.Field{
		{Name: "s1", Type: pInt, BitWidth: -1},
		{Name: "s2", Type: intT, BitWidth: -1},
		{Name: "s3", Type: pChar, BitWidth: -1},
	}
	structS.Record.Complete = true

	structT := u.NewRecord("T", false)
	structT.Record.Fields = []types.Field{
		{Name: "t1", Type: pInt, BitWidth: -1},
		{Name: "t2", Type: pInt, BitWidth: -1},
		{Name: "t3", Type: pChar, BitWidth: -1},
	}
	structT.Record.Complete = true

	f := &fuzzUniverse{lay: layout.New(nil)}
	add := func(name string, t *types.Type) {
		f.objs = append(f.objs, &ir.Object{
			ID: len(f.objs) + 1, Name: name, Kind: ir.ObjVar, Type: t,
		})
	}
	add("x", intT)
	add("y", intT)
	add("p", pInt)
	add("q", pInt)
	add("pp", ppInt)
	add("s", structS)
	add("t", structT)
	add("ps", types.PointerTo(structS))
	add("pt", types.PointerTo(structT))
	return f
}

// fieldPaths returns the valid field selections for a value of type t:
// the empty path always, plus each field name when t is a struct.
func fieldPaths(t *types.Type) []ir.Path {
	paths := []ir.Path{nil}
	if t != nil && t.IsRecord() && t.Record != nil {
		for _, f := range t.Record.Fields {
			paths = append(paths, ir.Path{f.Name})
		}
	}
	return paths
}

// decodeProgram turns fuzz bytes into a program of the five normalized
// forms: 4 bytes per statement (op, dst, src/ptr, path selector).
func decodeProgram(f *fuzzUniverse, data []byte) *ir.Program {
	const maxStmts = 256
	prog := &ir.Program{Objects: f.objs}
	pick := func(b byte) *ir.Object { return f.objs[int(b)%len(f.objs)] }
	for i := 0; i+4 <= len(data) && len(prog.Stmts) < maxStmts; i += 4 {
		op := ir.Op(int(data[i]) % 5) // the five normalized forms
		a, b := pick(data[i+1]), pick(data[i+2])
		sel := data[i+3]
		st := &ir.Stmt{Op: op}
		switch op {
		case ir.OpAddrOf:
			st.Dst, st.Src = a, b
			paths := fieldPaths(b.Type)
			st.Path = paths[int(sel)%len(paths)]
		case ir.OpAddrField:
			st.Dst, st.Ptr = a, b
			paths := fieldPaths(b.Type.Pointee())
			st.Path = paths[int(sel)%len(paths)]
		case ir.OpCopy:
			st.Dst, st.Src = a, b
			paths := fieldPaths(b.Type)
			st.Path = paths[int(sel)%len(paths)]
		case ir.OpLoad:
			st.Dst, st.Ptr = a, b
		case ir.OpStore:
			st.Ptr, st.Src = a, b
		}
		prog.Stmts = append(prog.Stmts, st)
	}
	return prog
}

// fuzzDump renders a result as its sorted fact listing, read from
// DenseState.
func fuzzDump(r *Result) string {
	cells, redirect, sets := r.DenseState()
	m := make(map[Cell]CellSet)
	for i, c := range cells {
		ids := sets[i]
		if redirect != nil {
			ids = sets[redirect[i]]
		}
		for _, id := range ids {
			if m[c] == nil {
				m[c] = make(CellSet)
			}
			m[c].Add(cells[id])
		}
	}
	keys := make(CellSet, len(m))
	for c := range m {
		keys.Add(c)
	}
	var b strings.Builder
	for _, c := range keys.Sorted() {
		b.WriteString(c.String())
		b.WriteString(" ->")
		for _, t := range m[c].Sorted() {
			b.WriteString(" ")
			b.WriteString(t.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FuzzSolve checks, on every well-formed five-form program and under all
// four strategies, that the solver terminates without panicking; that a
// governed run reports a valid Stop when it trips its bounds and otherwise
// matches the reference solver fact for fact; and that a tight MaxFacts
// bound (the input's last byte picks it) holds, with a Stop that counts the
// facts the partial result shows.
func FuzzSolve(f *testing.F) {
	// Seeds: each op solo, a mixed program, and adversarial repetition.
	f.Add([]byte{0, 2, 0, 0, 3, 2, 0, 0}) // p=&x; *p=x (addrof+store)
	f.Add([]byte{0, 5, 5, 1, 2, 6, 5, 2}) // struct paths via copy
	f.Add([]byte{1, 7, 7, 1, 4, 4, 7, 0}) // addrfield through *S, load **
	f.Add([]byte{0, 4, 2, 0, 2, 3, 2, 0, 3, 4, 3, 0, 4, 2, 4, 0})
	var ring []byte
	for i := 0; i < 64; i++ {
		ring = append(ring, 2, byte(2+i%3), byte(2+(i+1)%3), 0)
	}
	f.Add(ring)
	// A three-cell copy cycle p -> q -> ps -> p whose members hold
	// different sets when detection merges them; pt's AddrField then adds
	// q = &pt->t1 to the merged class. The trailing byte sets MaxFacts 6,
	// which the merge would cross, then MaxFacts 8, which the merge fits
	// and the later three-member fact would cross.
	cycle := []byte{
		1, 3, 8, 1, // q = &pt->t1
		0, 8, 6, 0, // pt = &t
		0, 2, 0, 0, // p = &x
		2, 3, 2, 0, // q = p
		2, 7, 3, 0, // ps = q
		2, 2, 7, 0, // p = ps
		0, 3, 1, 0, // q = &y
	}
	f.Add(append(append([]byte(nil), cycle...), 5))
	f.Add(append(append([]byte(nil), cycle...), 7))

	univ := newFuzzUniverse()
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeProgram(univ, data)
		if len(prog.Stmts) == 0 {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		opts := Options{Limits: Limits{MaxSteps: 10000, MaxFacts: 100000}}
		maxFacts := 1 + int(data[len(data)-1])%64
		tight := Options{Limits: Limits{MaxFacts: maxFacts}}
		for _, mk := range []func() Strategy{
			func() Strategy { return NewCIS() },
			func() Strategy { return NewCollapseAlways() },
			func() Strategy { return NewCollapseOnCast() },
			func() Strategy { return NewOffsets(univ.lay) },
		} {
			r := AnalyzeContext(ctx, prog, mk(), opts)
			if r == nil {
				t.Fatal("AnalyzeContext returned nil")
			}
			if r.Incomplete != nil {
				switch r.Incomplete.Reason {
				case StopMaxSteps, StopMaxFacts, StopMaxCells, StopCanceled, StopDeadline:
				default:
					t.Fatalf("invalid stop reason %q", r.Incomplete.Reason)
				}
			} else if got, want := fuzzDump(r), fuzzDump(AnalyzeReference(prog, mk(), Options{})); got != want {
				t.Fatalf("%s: governed run differs from the reference:\n--- dense ---\n%s--- reference ---\n%s",
					r.Strategy.Name(), got, want)
			}

			lim := AnalyzeContext(ctx, prog, mk(), tight)
			if n := lim.TotalFacts(); n > maxFacts {
				t.Fatalf("%s: %d facts under MaxFacts %d", lim.Strategy.Name(), n, maxFacts)
			}
			if stop := lim.Incomplete; stop != nil && stop.Facts != lim.TotalFacts() {
				t.Fatalf("%s: stop reports %d facts, result shows %d",
					lim.Strategy.Name(), stop.Facts, lim.TotalFacts())
			}
		}
	})
}

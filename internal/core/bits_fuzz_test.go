package core

import (
	"sort"
	"testing"
)

// decodeBitsIDs turns a fuzz byte stream into CellIDs biased toward block
// boundaries: each pair (hi, lo) selects block hi with bit lo&63, so ids
// cluster around multiples of 64 — the word edges UnionDiff's merge walk has
// to get right.
func decodeBitsIDs(data []byte) []CellID {
	ids := make([]CellID, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		ids = append(ids, CellID(data[i])<<6|CellID(data[i+1]&63))
	}
	return ids
}

// FuzzBitsUnionDiff differentially tests UnionDiff (and the UnionInPlace it
// delegates to) against a map[uint32]bool reference model: the receiver must
// end up holding exactly the union, the returned buffer must list exactly
// the newly-set ids in ascending order, and the o == b aliased-receiver
// union must be a no-op.
func FuzzBitsUnionDiff(f *testing.F) {
	f.Add([]byte{}, []byte{})                       // empty ∪ empty
	f.Add([]byte{0, 0}, []byte{})                   // one ∪ empty
	f.Add([]byte{}, []byte{0, 63, 1, 0})            // empty receiver grows
	f.Add([]byte{0, 0, 0, 63}, []byte{0, 63, 1, 0}) // shared block + new block
	f.Add([]byte{2, 1, 4, 1}, []byte{1, 1, 3, 1})   // interleaved blocks
	f.Add([]byte{255, 63, 0, 0}, []byte{255, 63})   // extreme block indices
	f.Add([]byte{1, 5, 1, 5, 1, 6}, []byte{1, 5})   // duplicates in stream
	f.Fuzz(func(t *testing.T, bBytes, oBytes []byte) {
		var b, o Bits
		bRef := make(map[uint32]bool)
		for _, id := range decodeBitsIDs(bBytes) {
			b.Add(id)
			bRef[uint32(id)] = true
		}
		oRef := make(map[uint32]bool)
		for _, id := range decodeBitsIDs(oBytes) {
			o.Add(id)
			oRef[uint32(id)] = true
		}

		// Expected diff: o's ids absent from b, ascending.
		var wantDiff []CellID
		for id := range oRef {
			if !bRef[id] {
				wantDiff = append(wantDiff, CellID(id))
			}
		}
		sort.Slice(wantDiff, func(i, j int) bool { return wantDiff[i] < wantDiff[j] })

		// Non-empty prefix in buf: UnionDiff must append, not overwrite.
		sentinel := []CellID{^CellID(0)}
		gotBuf := b.UnionDiff(&o, sentinel)
		if len(gotBuf) == 0 || gotBuf[0] != ^CellID(0) {
			t.Fatalf("UnionDiff clobbered the buffer prefix: %v", gotBuf)
		}
		gotDiff := gotBuf[1:]
		if len(gotDiff) != len(wantDiff) {
			t.Fatalf("diff length = %d, want %d (got %v, want %v)",
				len(gotDiff), len(wantDiff), gotDiff, wantDiff)
		}
		for i := range wantDiff {
			if gotDiff[i] != wantDiff[i] {
				t.Fatalf("diff[%d] = %d, want %d", i, gotDiff[i], wantDiff[i])
			}
		}

		// Receiver now holds the union; o is untouched.
		union := make(map[uint32]bool, len(bRef)+len(oRef))
		for id := range bRef {
			union[id] = true
		}
		for id := range oRef {
			union[id] = true
		}
		if b.Len() != len(union) {
			t.Fatalf("b.Len = %d, want %d", b.Len(), len(union))
		}
		b.Iterate(func(id CellID) {
			if !union[uint32(id)] {
				t.Fatalf("b contains %d not in the union model", id)
			}
		})
		if o.Len() != len(oRef) {
			t.Fatalf("o.Len changed: %d, want %d", o.Len(), len(oRef))
		}
		o.Iterate(func(id CellID) {
			if !oRef[uint32(id)] {
				t.Fatalf("o mutated: contains %d", id)
			}
		})

		// Aliased receiver: a self-union must change nothing and report no
		// new ids.
		selfBuf := b.UnionDiff(&b, nil)
		if len(selfBuf) != 0 {
			t.Fatalf("self-union reported new ids: %v", selfBuf)
		}
		if b.Len() != len(union) {
			t.Fatalf("self-union changed Len: %d, want %d", b.Len(), len(union))
		}

		// UnionInPlace agreement on fresh copies: same union, added count
		// equals the diff length.
		var b2 Bits
		for id := range bRef {
			b2.Add(CellID(id))
		}
		if added := b2.UnionInPlace(&o); added != len(wantDiff) {
			t.Fatalf("UnionInPlace added = %d, want %d", added, len(wantDiff))
		}
		if b2.Len() != len(union) {
			t.Fatalf("UnionInPlace Len = %d, want %d", b2.Len(), len(union))
		}
	})
}

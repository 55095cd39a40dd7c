package export

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/pointsto"
)

func TestCheckedRoundTrip(t *testing.T) {
	snap := solveSnapshot(t, pointsto.Config{})
	var buf bytes.Buffer
	if err := WriteSnapshotChecked(&buf, snap); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !strings.HasPrefix(buf.String(), checkedMagic+" ") {
		t.Fatalf("container does not open with the header: %q", buf.String()[:40])
	}
	got, err := ReadSnapshotChecked(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Errorf("round trip changed the snapshot")
	}
}

// readV1Golden returns the plain-JSON snapshot the pre-ptrsnap2 writer
// produced for snapshotProgram under CIS (duration zeroed), kept unchanged
// as the fixture for the legacy readers.
func readV1Golden(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// wrapChecked puts payload behind a valid checked-container header.
func wrapChecked(magic string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append([]byte(fmt.Sprintf("%s %x %d\n", magic, sum, len(payload))), payload...)
}

// TestCheckedLegacyFallback: spills of older daemons still decode, to the
// same snapshot a fresh NewSnapshot builds — a plain (headerless) JSON file
// from a pre-checksum daemon, and a ptrsnap1 container.
func TestCheckedLegacyFallback(t *testing.T) {
	want := solveSnapshot(t, pointsto.Config{Strategy: pointsto.CIS})
	want.DurationNS = 0
	v1 := readV1Golden(t)
	for name, data := range map[string][]byte{
		"headerless": v1,
		"ptrsnap1":   wrapChecked(checkedMagicV1, v1),
	} {
		got, err := ReadSnapshotChecked(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: legacy read: %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: legacy snapshot differs from a fresh one\nfresh:  %+v\ndecoded: %+v", name, want, got)
		}
	}
}

// TestCheckedDetectsCorruption: every adversarial mutation of a valid
// container must come back as a *CorruptError — never a panic, never a
// silently-decoded snapshot.
func TestCheckedDetectsCorruption(t *testing.T) {
	snap := solveSnapshot(t, pointsto.Config{})
	var buf bytes.Buffer
	if err := WriteSnapshotChecked(&buf, snap); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := map[string]func([]byte) []byte{
		"truncated-half": func(b []byte) []byte { return b[:len(b)/2] },
		"truncated-tail": func(b []byte) []byte { return b[:len(b)-1] },
		"zero-length":    func(b []byte) []byte { return nil },
		"bit-flip-payload": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x20
			return c
		},
		"bit-flip-digest": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(checkedMagic)+2] ^= 0x01
			return c
		},
		"trailing-garbage": func(b []byte) []byte { return append(append([]byte(nil), b...), "extra"...) },
		"header-only": func(b []byte) []byte {
			i := bytes.IndexByte(b, '\n')
			return b[:i+1]
		},
		"huge-length": func(b []byte) []byte {
			// A header claiming far more bytes than follow must fail as
			// truncated without allocating what it claims.
			i := bytes.IndexByte(b, '\n')
			sum := b[len(checkedMagic)+1 : len(checkedMagic)+1+64]
			return append([]byte(checkedMagic+" "+string(sum)+" 33333333333\n"), b[i+1:]...)
		},
		"wrong-version": func(b []byte) []byte {
			var w bytes.Buffer
			bad := *snap
			bad.Version = 99
			WriteSnapshotChecked(&w, &bad)
			return w.Bytes()
		},
	}
	// A valid checksum over a payload the ptrsnap2 decoder must refuse.
	for name, payload := range map[string]string{
		"negative-target-index":     `{"version":1,"targets":["a"],"sets":[[-1]],"vars":[["p",0]],"cells":[]}`,
		"target-index-out-of-range": `{"version":1,"targets":["a"],"sets":[[1]],"vars":[["p",0]],"cells":[]}`,
		"negative-set-index":        `{"version":1,"targets":["a"],"sets":[[0]],"vars":[["p",-1]],"cells":[]}`,
		"set-index-out-of-range":    `{"version":1,"targets":["a"],"sets":[[0]],"vars":[["p",1]],"cells":[]}`,
		"cell-set-out-of-range":     `{"version":1,"targets":["a"],"sets":[[0]],"vars":[],"cells":[["p",7]]}`,
		"duplicate-var":             `{"version":1,"targets":["a"],"sets":[[0]],"vars":[["p",0],["p",0]],"cells":[]}`,
		"unsorted-vars":             `{"version":1,"targets":["a"],"sets":[[0]],"vars":[["q",0],["p",0]],"cells":[]}`,
		"short-pair":                `{"version":1,"targets":["a"],"sets":[[0]],"vars":[["p"]],"cells":[]}`,
		"long-pair":                 `{"version":1,"targets":["a"],"sets":[[0]],"vars":[["p",0,0]],"cells":[]}`,
		"null-pair":                 `{"version":1,"targets":["a"],"sets":[[0]],"vars":[null],"cells":[]}`,
		"fractional-index":          `{"version":1,"targets":["a"],"sets":[[0.5]],"vars":[],"cells":[]}`,
		"targets-not-strings":       `{"version":1,"targets":[1,2],"sets":[[0]],"vars":[],"cells":[]}`,
		"sets-not-lists":            `{"version":1,"targets":["a"],"sets":{"0":[0]},"vars":[],"cells":[]}`,
		"v2-wrong-version":          `{"version":2,"targets":[],"sets":[],"vars":[],"cells":[]}`,
		"v2-not-json":               `ptrsnap2`,
	} {
		mutate["bad-table/"+name] = func([]byte) []byte { return wrapChecked(checkedMagic, []byte(payload)) }
	}
	for name, f := range mutate {
		_, err := ReadSnapshotChecked(bytes.NewReader(f(valid)))
		if err == nil {
			t.Errorf("%s: corrupt container decoded successfully", name)
			continue
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a *CorruptError", name, err)
		}
	}
}

// FuzzSnapshotDecode throws arbitrary bytes at both snapshot decoders: they
// must never panic, and anything they do accept must re-encode and decode
// to the same value.
func FuzzSnapshotDecode(f *testing.F) {
	rep, err := pointsto.Analyze([]pointsto.Source{{Name: "snap.c", Text: snapshotProgram}}, pointsto.Config{})
	if err != nil {
		f.Fatal(err)
	}
	snap := NewSnapshot(rep, "")
	var checked bytes.Buffer
	WriteSnapshotChecked(&checked, snap)
	v1 := readV1Golden(f)
	f.Add(v1)
	f.Add(checked.Bytes())
	f.Add([]byte(checkedMagic + " 00 0\n"))
	f.Add([]byte(`{"version":1,"vars":{"x":["y"]}}`))
	f.Add([]byte{})
	f.Add(wrapChecked(checkedMagicV1, v1))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSnapshotChecked(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSnapshotChecked(&buf, snap); err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		again, err := ReadSnapshotChecked(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if !reflect.DeepEqual(snap, again) {
			t.Fatalf("re-encode round trip changed the snapshot")
		}
	})
}

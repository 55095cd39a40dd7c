package cli_test

// Corpus-wide pin of the CLI and export renderings: every text rendering
// the commands print (fact dump, dot graph, MOD/REF summaries, call graph)
// and the JSON form export.Result embeds are hashed per (program, strategy)
// and compared with testdata/render_digests.txt, so a change to how these
// renderings read a Result cannot alter a byte unnoticed.
//
// Regenerate the file (only when an output change is intended) with
//
//	UPDATE_RENDER_DIGESTS=1 go test -run TestRenderDigests ./internal/cli

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cc/layout"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/export"
	"repro/internal/frontend"
	"repro/internal/metrics"
)

const renderDigestsFile = "testdata/render_digests.txt"

func TestRenderDigests(t *testing.T) {
	var got strings.Builder
	for _, name := range corpus.SortedByGroup() {
		src, err := corpus.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := frontend.Load(src, frontend.Options{ABI: layout.LP64})
		if err != nil {
			t.Fatal(err)
		}
		for _, sname := range metrics.StrategyNames {
			r := core.Analyze(res.IR, metrics.NewStrategy(sname, res.Layout))
			if r.Incomplete != nil {
				t.Fatalf("%s/%s: incomplete: %v", name, sname, r.Incomplete)
			}
			renders := []struct {
				kind  string
				write func(io.Writer)
			}{
				{"all", func(w io.Writer) { cli.PrintAll(w, r) }},
				{"dot", func(w io.Writer) { cli.WriteDot(w, r) }},
				{"modref", func(w io.Writer) { cli.PrintModRef(w, r, res.IR) }},
				{"callgraph", func(w io.Writer) { cli.PrintCallGraph(w, r, res.IR) }},
				{"json", func(w io.Writer) { writeResultJSON(t, w, r) }},
			}
			for _, rd := range renders {
				var buf bytes.Buffer
				rd.write(&buf)
				if buf.Len() == 0 {
					t.Errorf("%s/%s: empty %s rendering", name, sname, rd.kind)
				}
				fmt.Fprintf(&got, "%s/%s %s %x\n", name, sname, rd.kind, sha256.Sum256(buf.Bytes()))
			}
		}
	}

	if os.Getenv("UPDATE_RENDER_DIGESTS") != "" {
		if err := os.MkdirAll(filepath.Dir(renderDigestsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(renderDigestsFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(renderDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d digests, want %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("digest mismatch:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

// writeResultJSON writes export.Result with its sets, as ptrcheck -json
// embeds it, with the run-to-run varying duration zeroed.
func writeResultJSON(t *testing.T, w io.Writer, r *core.Result) {
	t.Helper()
	out := export.Result(r, true)
	out.DurationNS = 0
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
}

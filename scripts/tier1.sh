#!/bin/sh
# Tier-1 verification gate (see ROADMAP.md). Run from the repository root:
#
#	sh scripts/tier1.sh
#
# Fails on: build errors, vet diagnostics, unformatted files, test failures
# (including the separate perfbench module), or data races in the
# AnalyzeBatch worker pool or in concurrent resumes of one captured graph.
set -eu

cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go test"
go test ./...

echo "== go test -race (AnalyzeBatch worker pool and concurrent resumes must be race-clean)"
go test -race ./internal/core/... ./internal/corpus/...
go test -race -count=1 -run 'TestConcurrentResume$' ./internal/incr

echo "== perfbench module (separate go.mod: the root build never compiles it)"
(cd perfbench && go vet ./... && go test ./...)

echo "== prepass differential + large-generator smoke (small scale)"
go test -short -count=1 \
	-run 'TestPrepassDifferentialCorpus$|TestGenerateLargePrepassCollapsesChains' \
	./internal/core ./internal/corpus

echo "== command outputs (ptrcheck and ptrdiff renderings must stay byte-identical)"
# The digests in scripts/testdata/cmd_outputs.sha256 pin the commands' full
# output; after an intended output change, rerun these commands and refresh
# the file with "sha256sum * > .../cmd_outputs.sha256" inside the output dir.
cmdout=$(mktemp -d)
trap 'rm -rf "$cmdout"' EXIT
go build -o "$cmdout/bin/ptrcheck" ./cmd/ptrcheck
go build -o "$cmdout/bin/ptrdiff" ./cmd/ptrdiff
for prog in compiler ks; do
	"$cmdout/bin/ptrcheck" -corpus "$prog" >"$cmdout/ptrcheck-$prog.txt"
	for mode in dot modref callgraph; do
		"$cmdout/bin/ptrcheck" -corpus "$prog" "-$mode" >"$cmdout/ptrcheck-$prog-$mode.txt"
	done
done
"$cmdout/bin/ptrdiff" -a collapse-always -b offsets -corpus ks >"$cmdout/ptrdiff-ks.txt"
"$cmdout/bin/ptrdiff" -a collapse-always -b common-initial-seq -corpus bc >"$cmdout/ptrdiff-bc.txt"
(cd "$cmdout" && sha256sum -c --quiet) <scripts/testdata/cmd_outputs.sha256

echo "== fuzz smoke (frontend + solver + interner + snapshot decoder must never panic)"
go test -run='^$' -fuzz=FuzzLoad -fuzztime=10s ./internal/frontend
go test -run='^$' -fuzz=FuzzSolve -fuzztime=10s ./internal/core
go test -run='^$' -fuzz=FuzzBitsIntern -fuzztime=10s ./internal/core
go test -run='^$' -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/export

if command -v curl >/dev/null 2>&1; then
	echo "== chaos smoke (overload + fault injection + crash-safe restart)"
	sh scripts/chaos_smoke.sh
else
	echo "== chaos smoke (curl not installed; skipped)"
fi

if command -v govulncheck >/dev/null 2>&1; then
	echo "== govulncheck"
	govulncheck ./...
else
	echo "== govulncheck (not installed; skipped)"
fi

echo "tier-1 OK"

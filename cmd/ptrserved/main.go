// Command ptrserved serves the pointer analysis as a long-running query
// daemon: an HTTP/JSON API over the pointsto facade with a content-
// addressed result cache, so repeated analyses of the same program are
// served from memory (or from the disk spill after a restart) instead of
// re-solved.
//
// Alongside the exhaustive /v1/analyze path the daemon keeps warm query
// sessions (POST /v1/session): a session answers /v1/pointsto, /v1/alias
// and batched POST /v1/query requests through the demand-driven engine,
// exploring only the constraint slice a query needs instead of solving the
// whole program up front. Sessions are keyed by the same content hash as
// the cache and evicted LRU past -max-sessions; /varz reports their
// counters under "demand".
//
// Usage:
//
//	ptrserved [flags]
//
// Flags:
//
//	-addr a            listen address (default :7979)
//	-cache-bytes n     in-memory result-cache budget in bytes (default 256 MiB;
//	                   0 = unlimited)
//	-spill-dir d       directory for the disk spill; "" disables spilling.
//	                   A restarted daemon warms from this directory.
//	-max-sessions n    warm demand-query sessions kept resident (default 32)
//	-drain d           graceful-shutdown drain window for in-flight solves
//	                   (default 10s); after it, stragglers are canceled
//	-max-source-bytes  request-body size cap (default 4 MiB)
//	-pprof-addr a      serve net/http/pprof on a separate listener
//	                   ("" disables, the default). Keep it loopback-only:
//	                   the profiling endpoints are unauthenticated.
//	-timeout d         per-request solve-time ceiling (0 = none); requests
//	                   asking for more (or for nothing) are clamped to it
//	-max-steps n       per-request worklist-step ceiling (0 = none)
//	-max-facts n       per-request points-to-fact ceiling (0 = none)
//	-max-cells n       per-request cell-count ceiling (0 = none)
//	-max-inflight-solves n  solves admitted concurrently per endpoint
//	                   (0 = unlimited). One slot is one solve on one core.
//	                   With a limit set, a bounded queue
//	                   forms behind the slots and overflow is rejected with
//	                   429 + Retry-After; a request whose deadline budget
//	                   cannot cover the estimated solve cost is shed with
//	                   503 "would-miss-deadline".
//	-solve-queue n     requests allowed to wait for a slot
//	                   (0 = 4x -max-inflight-solves)
//	-chaos spec        deterministic fault injection for drills, e.g.
//	                   seed=7,solve-delay=50ms:0.3,spill-err=0.1,panic=1,
//	                   slow-write=5ms:0.2. Injected faults surface in /varz
//	                   under "chaos". Never use in production.
//
// A daemon started with -spill-dir verifies every spill file on boot:
// corrupt or truncated snapshots are moved to <spill-dir>/quarantine and
// counted in /varz (cache.quarantined) instead of being served or crashing
// the boot. Spill writes are atomic (temp file + fsync + rename), so a
// crash mid-write leaves no torn files behind — at worst a stale temp file
// the next boot sweeps away.
//
// SIGTERM or SIGINT begins a graceful shutdown: the listener closes,
// in-flight solves drain, and the process exits 0 on a clean drain.
//
// Quickstart:
//
//	ptrserved -addr :7979 &
//	curl -s localhost:7979/v1/session -d '{"corpus": "anagram"}'
//	curl -s 'localhost:7979/v1/pointsto?key=<key>&var=...'
//	curl -s localhost:7979/v1/query -d '{"queries": [{"op": "pointsto", "key": "<key>", "var": "..."}]}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/server"
	"repro/internal/store"
	"repro/pointsto"
)

func main() { os.Exit(cli.Run("ptrserved", run)) }

func run() error {
	addr := flag.String("addr", ":7979", "listen address")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "result-cache memory budget in bytes (0 = unlimited)")
	spillDir := flag.String("spill-dir", "", "disk-spill directory for cached results (empty = no spill)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain window for in-flight solves")
	maxSource := flag.Int64("max-source-bytes", 4<<20, "request body size cap in bytes")
	maxSessions := flag.Int("max-sessions", 32, "warm demand-query sessions kept resident")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	maxInflight := flag.Int("max-inflight-solves", 0, "concurrent solves admitted per endpoint (0 = unlimited, no admission control); one slot is one solve on one core")
	solveQueue := flag.Int("solve-queue", 0, "requests allowed to wait for a solve slot (0 = 4x -max-inflight-solves); beyond it, 429")
	chaosSpec := flag.String("chaos", "", "deterministic fault injection, e.g. seed=7,solve-delay=50ms:0.3,spill-err=0.1,panic=1,slow-write=5ms:0.2 (empty = off; never use in production)")
	var gov cli.Govern
	gov.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		return cli.Usagef("unexpected arguments %v", flag.Args())
	}

	chaosCfg, err := chaos.ParseSpec(*chaosSpec)
	if err != nil {
		return cli.Usagef("bad -chaos spec: %v", err)
	}
	monkey := chaos.New(chaosCfg)
	if monkey != nil {
		fmt.Fprintf(os.Stderr, "ptrserved: CHAOS MODE (seed %d) — injecting faults on purpose\n", chaosCfg.Seed)
	}

	st, err := store.New(*cacheBytes, *spillDir)
	if err != nil {
		return fmt.Errorf("open spill dir: %w", err)
	}
	if monkey != nil {
		st.SetSpillHook(monkey.SpillError)
	}
	if *spillDir != "" {
		// Warm-restart integrity sweep: corrupt or truncated spill files
		// (e.g. from a crash mid-write before the atomic rename landed, or
		// disk rot) are quarantined now, not discovered as 500s later.
		vr, err := st.VerifySpill()
		if err != nil {
			return fmt.Errorf("verify spill dir: %w", err)
		}
		fmt.Fprintf(os.Stderr, "ptrserved: spill verify: %d checked, %d quarantined, %d temp files cleaned\n",
			vr.Checked, vr.Quarantined, vr.TempCleaned)
	}
	srv := server.New(server.Config{
		Store:          st,
		MaxSourceBytes: *maxSource,
		MaxSessions:    *maxSessions,
		CeilLimits: pointsto.Limits{
			MaxSteps: gov.MaxSteps,
			MaxFacts: gov.MaxFacts,
			MaxCells: gov.MaxCells,
		},
		MaxTimeout: gov.Timeout,
		Admission: server.AdmissionConfig{
			MaxInflight: *maxInflight,
			MaxQueue:    *solveQueue,
		},
		Chaos: monkey,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		// A dedicated mux on a dedicated listener: the profiling endpoints
		// never ride on the API address, so exposing the daemon does not
		// expose pprof. Failure to bind is fatal (a silently missing
		// profiler defeats the point of asking for one).
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pl, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pl.Close()
		fmt.Fprintf(os.Stderr, "ptrserved: pprof on %s\n", pl.Addr())
		go func() {
			psrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
			if err := psrv.Serve(pl); err != nil && err != http.ErrServerClosed && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "ptrserved: pprof server: %v\n", err)
			}
		}()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ptrserved: listening on %s (cache budget %d bytes, spill %q)\n",
		l.Addr(), *cacheBytes, *spillDir)
	err = srv.Serve(ctx, l, *drain)
	if err == nil {
		fmt.Fprintln(os.Stderr, "ptrserved: drained cleanly")
	}
	return err
}

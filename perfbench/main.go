// Command perfbench is the repository's end-to-end benchmark. It drives
// ptrserved's request path in-process through server.New(...).Handler()
// with one closed-loop client, checks every answer against the reference
// solver, and prints the end-to-end metrics (--trace 0) or the per-layer
// ledger of a traced replay (--trace 1). See README.md.
//
//	perfbench --workload corpus_cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Nonce-stream phases: the same workload seed drives the server run and
// the traced replay through distinct streams.
const (
	phaseRun    = 1
	phaseReplay = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // scratch space for spills and the trace, inside the checkout
}

// setupsPerRun is how many times an untraced run sets up; setup_s is the
// median. A traced run sets up once.
const setupsPerRun = 3

// result is what one invocation prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: corpus_cold, hub_wide or session_edit")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed (the only source of randomness)")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced replay printing the per-layer ledger")
	fs.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "perfbench"), "directory for spill files and the trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: bad arguments")
		fs.Usage()
		return 2
	}
	o.trace = trace == 1
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, info, err := measure(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, line := range info {
		fmt.Fprintln(stdout, "#", line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// measure runs one invocation: set-up, then the untraced loop or the
// traced replay. info holds human-readable lines printed before the result.
func measure(o options) (*result, []string, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, nil, err
	}
	runDir, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(runDir)

	setups := setupsPerRun
	if o.trace {
		setups = 1
	}
	var setupTimes []float64
	var r *runner
	var warmFailed int
	var warmErr error
	for k := 0; k < setups; k++ {
		if r != nil {
			os.RemoveAll(r.spillDir)
		}
		start := time.Now()
		b, err := newBench(o.workload, o.seed)
		if err != nil {
			return nil, nil, err
		}
		r, err = newRunner(b, filepath.Join(runDir, fmt.Sprintf("spill%d", k)), phaseRun)
		if err != nil {
			return nil, nil, err
		}
		r.warm()
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		warmFailed, warmErr = r.stats.failed, r.stats.firstErr
	}
	fsType := filesystem(r.spillDir)

	loopFor := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		loopFor /= 2 // half untraced (the overhead baseline), half traced
	}
	runtime.GC()
	debug.FreeOSMemory()
	rssReset := resetPeakRSS() == nil
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	misses0 := r.st.Stats().Misses
	r.loop(loopFor)
	runtime.ReadMemStats(&ms1)
	s := r.stats
	failed := s.failed + warmFailed
	firstErr := warmErr
	if firstErr == nil {
		firstErr = s.firstErr
	}

	res := &result{Attempted: s.attempted, Metrics: make(map[string]metric)}
	info := []string{
		fmt.Sprintf("workload=%s seed=%d gomaxprocs=%d spill_fs=%s requests=%d queries=%d samples_beyond_p90=%d",
			o.workload, o.seed, runtime.GOMAXPROCS(0), fsType, s.requests, len(s.queryLat), s.requests-int(0.9*float64(s.requests))),
	}
	if !o.trace && s.requests < 100 {
		info = append(info, fmt.Sprintf("warning: %d requests leave fewer than 10 samples beyond p90", s.requests))
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	if !o.trace {
		lat := millis(s.latency)
		qlat := micros(s.queryLat)
		set("setup_s", "s", median(setupTimes))
		set("latency_p50_ms", "ms", quantile(lat, 0.5))
		set("latency_p90_ms", "ms", quantile(lat, 0.9))
		set("throughput_rps", "1/s", float64(s.requests)/s.wall.Seconds())
		set("query_p50_us", "us", quantile(qlat, 0.5))
		set("query_p90_us", "us", quantile(qlat, 0.9))
		set("peak_rss_mb", "MiB", s.peakRSS)
		if s.requests < r.b.rssAt {
			info = append(info, fmt.Sprintf("warning: peak_rss_mb read after %d requests, short of %d", s.requests, r.b.rssAt))
		}
		set("alloc_mb_per_req", "MiB", float64(s.allocBytes)/float64(s.requests)/(1<<20))
		set("spill_kb_per_req", "KiB", float64(s.spillBytes)/float64(s.analyzes)/1024)
		if !rssReset {
			info = append(info, "warning: could not reset VmHWM after set-up; peak_rss_mb includes set-up")
		}
	} else {
		p, err := newReplayer(r.b, filepath.Join(runDir, "replay"))
		if err != nil {
			return nil, nil, err
		}
		p.openChains()
		p.loop(loopFor)
		failed += p.failed
		if firstErr == nil {
			firstErr = p.firstErr
		}
		res.Attempted += p.attempted
		tracePath := filepath.Join(o.dir, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
		if err := p.t.write(tracePath); err != nil {
			return nil, nil, err
		}
		l := ledgerOf(p.t, ledgerRoots(o.workload))
		untracedP50 := quantile(millis(s.latency), 0.5)
		reconcile := ledgerMetrics(l, set, untracedP50, mean(millis(s.latency)))
		set("store.miss_frac", "ratio", float64(r.st.Stats().Misses-misses0)/float64(s.analyzes))
		set("gc.cycles", "count", float64(ms1.NumGC-ms0.NumGC)/float64(s.requests))
		set("gc.pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/float64(s.requests))
		verdict := "ok"
		if reconcile > reconcileBound {
			verdict = "OUT OF BOUND"
		}
		info = append(info,
			fmt.Sprintf("trace=%s spans=%d replayed_requests=%d", tracePath, len(p.t.spans), l.requests),
			fmt.Sprintf("reconcile: layer self times sum to %.3f ms/request vs untraced %.3f ms (error %.1f%%, bound %.0f%%): %s",
				sumSelf(l), mean(millis(s.latency)), 100*reconcile, 100*reconcileBound, verdict))
		for _, layer := range layers {
			info = append(info, fmt.Sprintf("layer %-8s self %8.3f ms/request  share %5.1f%%", layer,
				l.perReq(float64(l.self[layer])/1e6), 100*l.share(layer)))
		}
	}
	res.Failed = failed
	res.Correct = failed == 0
	info = append(info, fmt.Sprintf("failed_frac=%.6f (%d of %d)", float64(failed)/float64(max(res.Attempted, 1)), failed, res.Attempted))
	if firstErr != nil {
		info = append(info, fmt.Sprintf("first failure: %v", firstErr))
	}
	return res, info, nil
}

// reconcileBound is how far the traced replay's summed layer self times may
// sit from the untraced request mean before the run flags it.
const reconcileBound = 0.25

func ledgerRoots(workload string) func(string) bool {
	if workload == wSessionEdit {
		return func(root string) bool {
			return root == "server.session" || root == "server.query" || root == "server.analyze"
		}
	}
	return func(root string) bool { return root == "server.analyze" }
}

func sumSelf(l *ledger) float64 {
	var total time.Duration
	for _, layer := range layers {
		total += l.self[layer]
	}
	return l.perReq(float64(total) / 1e6)
}

// ledgerMetrics sets every per-layer metric from the ledger and returns
// the reconcile error.
func ledgerMetrics(l *ledger, set func(name, unit string, v float64), untracedP50, untracedMean float64) float64 {
	ms := func(name string) float64 { return l.perReq(float64(l.total[name]) / 1e6) }
	cnt := func(name string) float64 { return l.perReq(l.counts[name]) }
	set("server.self_ms", "ms", l.perReq(float64(l.self["server"])/1e6))
	set("store.key_us", "us", 1000*ms("store.key"))
	set("store.spill_ms", "ms", ms("store.spill"))
	set("store.spill_kb", "KiB", cnt("store.spill_bytes")/1024)
	for _, stage := range []string{"pp", "parse", "sema", "lower"} {
		set("frontend."+stage+"_ms", "ms", ms("frontend."+stage))
	}
	set("frontend.tokens", "count", cnt("frontend.tokens"))
	set("frontend.ir_stmts", "count", cnt("frontend.ir_stmts"))
	set("frontend.alloc_mb", "MiB", l.perReq(float64(l.selfAlloc["frontend"]))/(1<<20))
	set("core.solve_ms", "ms", ms("core.solve"))
	for _, c := range []string{"steps", "facts", "waves", "prep_collapsed", "intern_sets"} {
		set("core."+c, "count", cnt("core."+c))
	}
	demandUS := 0.0
	if n := l.calls["core.demand"]; n > 0 {
		demandUS = float64(l.total["core.demand"]) / 1e3 / float64(n)
	}
	set("core.demand_us", "us", demandUS)
	set("core.demand_cells_ratio", "ratio", cnt("core.demand_cells_ratio"))
	set("core.demand_fallbacks", "count", cnt("core.demand_fallbacks"))
	set("incr.capture_ms", "ms", ms("incr.capture"))
	set("incr.resume_ms", "ms", ms("incr.resume"))
	resumedFrac := 0.0
	if based := l.counts["incr.based"]; based > 0 {
		resumedFrac = l.counts["incr.resumed"] / based
	}
	set("incr.resumed_frac", "ratio", resumedFrac)
	set("incr.facts_seeded", "count", cnt("incr.facts_seeded"))
	set("incr.stmts_skipped", "count", cnt("incr.stmts_skipped"))
	set("export.snapshot_ms", "ms", ms("export.snapshot"))
	set("export.encode_ms", "ms", ms("export.encode"))
	set("export.snapshot_bytes", "bytes", cnt("export.snapshot_bytes"))
	set("export.alloc_mb", "MiB", l.perReq(float64(l.selfAlloc["export"]))/(1<<20))
	for _, layer := range layers {
		set(layer+".share", "ratio", l.share(layer))
	}
	walls := millis(l.walls)
	set("trace.overhead_ms", "ms", quantile(walls, 0.5)-untracedP50)
	reconcile := 0.0
	if untracedMean > 0 {
		reconcile = abs(sumSelf(l)-untracedMean) / untracedMean
	}
	set("trace.reconcile_err", "ratio", reconcile)
	return reconcile
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// quantile is the linearly interpolated q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the tests compare against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runOnce runs the command in-process and decodes its last output line.
func runOnce(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--dir", t.TempDir(), "--seconds", "0.6")
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func metricNames(res result) []string {
	var out []string
	for name := range res.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload briefly, untraced and traced: the printed
// metrics must be exactly the ones BENCHMARK.json names, with its units,
// and every answer must be correct.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command knows %d", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloadNames[i])
		}
		for _, trace := range []string{"0", "1"} {
			res := runOnce(t, "--workload", w.Name, "--seed", "5", "--trace", trace)
			want := map[string]string{}
			if trace == "0" {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: printed %v, want the %d names of BENCHMARK.json", w.Name, trace, metricNames(res), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %q", w.Name, trace, name, m, unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %s: correct=%v failed=%d attempted=%d, want failed_frac 0", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if trace == "0" {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
					}
				}
				continue
			}
			if w.Name != wSessionEdit && res.Metrics["store.miss_frac"].Value != 1 {
				t.Errorf("%s: store.miss_frac = %v, want 1", w.Name, res.Metrics["store.miss_frac"].Value)
			}
			if w.Name == wSessionEdit && (res.Metrics["core.demand_us"].Value <= 0 || res.Metrics["incr.resumed_frac"].Value <= 0) {
				t.Errorf("session_edit: core.demand_us = %v, incr.resumed_frac = %v, want both > 0",
					res.Metrics["core.demand_us"].Value, res.Metrics["incr.resumed_frac"].Value)
			}
		}
	}
}

// TestCorruptedAnswerCounts corrupts answers on their way to the checker
// and requires every corrupted one to be counted as a failure.
func TestCorruptedAnswerCounts(t *testing.T) {
	b, err := newBench(wCorpusCold, 5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(b, t.TempDir(), phaseRun)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	r.corrupt = func(body []byte) []byte {
		for _, c := range []struct{ from, to string }{
			{`"total_facts": `, `"total_facts": 1`},     // analyze: wrong fact count
			{`"targets": [`, `"targets": ["bogus", `},   // pointsto: extra target
			{`"may_alias": true`, `"may_alias": false`}, // alias: flipped
			{`"may_alias": false`, `"may_alias": true`}, // alias: flipped
		} {
			if out := bytes.Replace(body, []byte(c.from), []byte(c.to), 1); !bytes.Equal(out, body) {
				corrupted++
				return out
			}
		}
		return body
	}
	r.loop(300 * time.Millisecond)
	if corrupted == 0 || r.stats.failed != corrupted {
		t.Fatalf("corrupted %d answers, counted %d failures", corrupted, r.stats.failed)
	}

	// A cached snapshot whose sets differ from the reference fails too.
	r.corrupt = nil
	in := b.inputs[0]
	key, _ := r.analyze(in, "")
	snap, ok := r.st.Get(key)
	if !ok {
		t.Fatalf("analyze %s: %v", in.name, r.stats.firstErr)
	}
	vars := make(map[string][]string, len(snap.Vars))
	for name, targets := range snap.Vars {
		vars[name] = targets
	}
	for name, targets := range vars {
		vars[name] = append(append([]string(nil), targets...), "bogus")
		break
	}
	if err := checkVars(in.exp, vars); err == nil {
		t.Fatal("checkVars accepted a corrupted snapshot")
	}
}

package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/export"
	"repro/internal/fault"
	"repro/pointsto"
)

func testSnap(tag string) *export.Snapshot {
	return &export.Snapshot{
		Version:  export.SnapshotVersion,
		Strategy: "common-initial-seq",
		ABI:      "lp64",
		Vars:     map[string][]string{"p": {tag}},
		Sets:     []export.PointsTo{{Cell: "p", Targets: []string{tag}}},
	}
}

func hexKey(c byte) string { return strings.Repeat(string(c), 64) }

func mustStore(t *testing.T, budget int64, dir string) *Store {
	t.Helper()
	st, err := New(budget, dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestKeyCanonicalization(t *testing.T) {
	a := pointsto.Source{Name: "a.c", Text: "int x;"}
	b := pointsto.Source{Name: "b.c", Text: "int y;"}
	cfg := pointsto.Config{}

	k1 := Key([]pointsto.Source{a, b}, cfg)
	k2 := Key([]pointsto.Source{b, a}, cfg)
	if k1 != k2 {
		t.Error("source order must not change the key")
	}
	if !ValidKey(k1) {
		t.Errorf("Key output %q is not a valid key", k1)
	}
	if Key([]pointsto.Source{a}, cfg) == Key([]pointsto.Source{{Name: "a.c", Text: "int z;"}}, cfg) {
		t.Error("text change must change the key")
	}
	if k1 == Key([]pointsto.Source{a, b}, pointsto.Config{Strategy: pointsto.Offsets}) {
		t.Error("strategy must be part of the key")
	}
	if k1 == Key([]pointsto.Source{a, b}, pointsto.Config{Limits: pointsto.Limits{MaxSteps: 10}}) {
		t.Error("limits must be part of the key")
	}
	if k1 == Key([]pointsto.Source{a, b}, pointsto.Config{ABI: "ilp32"}) {
		t.Error("ABI must be part of the key")
	}
	// Results don't depend on timeout/parallelism, so keys must not either.
	if k1 != Key([]pointsto.Source{a, b}, pointsto.Config{Timeout: time.Second, Parallelism: 4}) {
		t.Error("timeout/parallelism must not change the key")
	}
	// Length-prefixing: moving a boundary between name and text must matter.
	if Key([]pointsto.Source{{Name: "a.cx", Text: "y"}}, cfg) == Key([]pointsto.Source{{Name: "a.c", Text: "xy"}}, cfg) {
		t.Error("name/text boundary must be unambiguous")
	}

	if ValidKey("short") || ValidKey(strings.Repeat("Z", 64)) || ValidKey(strings.Repeat("a", 63)+"/") {
		t.Error("malformed keys must be rejected")
	}
}

func TestGetOrSolveCachesAndCounts(t *testing.T) {
	st := mustStore(t, 0, "")
	var solves atomic.Int64
	solve := func(context.Context) (*export.Snapshot, error) {
		solves.Add(1)
		return testSnap("g"), nil
	}
	key := hexKey('a')

	snap, cached, err := st.GetOrSolve(context.Background(), key, solve)
	if err != nil || cached || snap == nil {
		t.Fatalf("first call: snap=%v cached=%v err=%v", snap, cached, err)
	}
	snap2, cached2, err := st.GetOrSolve(context.Background(), key, solve)
	if err != nil || !cached2 || snap2 != snap {
		t.Fatalf("second call: cached=%v err=%v same=%v", cached2, err, snap2 == snap)
	}
	if got := solves.Load(); got != 1 {
		t.Errorf("solve ran %d times, want 1", got)
	}
	s := st.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Solves != 1 || s.Entries != 1 || s.Bytes <= 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSingleflight(t *testing.T) {
	st := mustStore(t, 0, "")
	const n = 32
	var solves atomic.Int64
	arrived := make(chan struct{}, n)
	release := make(chan struct{})
	solve := func(context.Context) (*export.Snapshot, error) {
		solves.Add(1)
		<-release
		return testSnap("sf"), nil
	}
	key := hexKey('b')

	var wg sync.WaitGroup
	snaps := make([]*export.Snapshot, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived <- struct{}{}
			snap, _, err := st.GetOrSolve(context.Background(), key, solve)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			snaps[i] = snap
		}(i)
	}
	for i := 0; i < n; i++ {
		<-arrived
	}
	close(release)
	wg.Wait()

	if got := solves.Load(); got != 1 {
		t.Fatalf("solve ran %d times under %d concurrent requests, want 1", got, n)
	}
	for i := 1; i < n; i++ {
		if snaps[i] != snaps[0] {
			t.Fatalf("request %d got a different snapshot", i)
		}
	}
}

func TestCanceledSolveIsNotCached(t *testing.T) {
	st := mustStore(t, 0, "")
	var solves atomic.Int64
	started := make(chan struct{})
	solve := func(ctx context.Context) (*export.Snapshot, error) {
		solves.Add(1)
		if solves.Load() == 1 {
			close(started)
			<-ctx.Done() // simulate a long solve interrupted mid-way
			return nil, fault.New(fault.KindCanceled, "solve", "", ctx.Err())
		}
		return testSnap("ok"), nil
	}
	key := hexKey('c')

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := st.GetOrSolve(ctx, key, solve)
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("canceled request returned %v, want ErrCanceled", err)
	}

	// The canceled partial result must not have been cached: the next
	// request re-solves and succeeds.
	snap, cached, err := st.GetOrSolve(context.Background(), key, solve)
	if err != nil || cached || snap == nil {
		t.Fatalf("after cancel: snap=%v cached=%v err=%v", snap, cached, err)
	}
	if got := solves.Load(); got != 2 {
		t.Errorf("solve ran %d times, want 2 (cancel must not poison the cache)", got)
	}
	if s := st.Stats(); s.Entries != 1 {
		t.Errorf("entries = %d, want 1", s.Entries)
	}
}

// TestLateJoinerSurvivesAbandonedFlight drives the narrow race the retry
// loop in GetOrSolve exists for: A (the sole waiter) abandons its flight,
// which cancels the solve, and B joins that flight in the window between
// the cancellation and the canceled result being published. B must
// transparently retry with a fresh solve instead of inheriting A's
// cancellation.
func TestLateJoinerSurvivesAbandonedFlight(t *testing.T) {
	st := mustStore(t, 0, "")
	var solves atomic.Int64
	started := make(chan struct{})
	sawCancel := make(chan struct{})
	proceed := make(chan struct{})
	solve := func(ctx context.Context) (*export.Snapshot, error) {
		if solves.Add(1) == 1 {
			close(started)
			<-ctx.Done()
			close(sawCancel)
			<-proceed // hold the dying flight unpublished until B has joined it
			return nil, fault.New(fault.KindCanceled, "solve", "", ctx.Err())
		}
		return testSnap("retry"), nil
	}
	key := hexKey('d')

	actx, acancel := context.WithCancel(context.Background())
	aerr := make(chan error, 1)
	go func() {
		_, _, err := st.GetOrSolve(actx, key, solve)
		aerr <- err
	}()
	<-started
	acancel() // A abandons; as the only waiter this cancels the solve
	<-sawCancel
	if err := <-aerr; !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("A returned %v, want ErrCanceled", err)
	}

	// B joins the canceled-but-not-yet-published flight.
	berr := make(chan error, 1)
	var bsnap *export.Snapshot
	go func() {
		snap, _, err := st.GetOrSolve(context.Background(), key, solve)
		bsnap = snap
		berr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().InflightWaits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("B never joined the in-flight solve")
		}
		time.Sleep(time.Millisecond)
	}
	close(proceed) // the dying flight now publishes its canceled error

	if err := <-berr; err != nil {
		t.Fatalf("B returned %v, want success via transparent retry", err)
	}
	if bsnap == nil || bsnap.Vars["p"][0] != "retry" {
		t.Fatalf("B got %+v", bsnap)
	}
	if got := solves.Load(); got != 2 {
		t.Errorf("solve ran %d times, want 2 (abandoned flight + B's retry)", got)
	}
}

func TestEvictionByByteBudget(t *testing.T) {
	big := testSnap("x")
	budget := int64(2*big.SizeBytes() + big.SizeBytes()/2) // room for two entries, not three
	st := mustStore(t, budget, "")
	solve := func(tag string) func(context.Context) (*export.Snapshot, error) {
		return func(context.Context) (*export.Snapshot, error) { return testSnap(tag), nil }
	}
	k1, k2, k3 := hexKey('1'), hexKey('2'), hexKey('3')
	ctx := context.Background()
	st.GetOrSolve(ctx, k1, solve("1"))
	st.GetOrSolve(ctx, k2, solve("2"))
	st.GetOrSolve(ctx, k1, solve("1")) // touch k1 so k2 is the LRU victim
	st.GetOrSolve(ctx, k3, solve("3"))

	if _, ok := st.Get(k2); ok {
		t.Error("k2 should have been evicted (LRU under byte budget)")
	}
	if _, ok := st.Get(k1); !ok {
		t.Error("k1 (recently used) should have survived")
	}
	if s := st.Stats(); s.Evictions == 0 || s.Bytes > budget {
		t.Errorf("stats = %+v (want evictions > 0, bytes <= %d)", s, budget)
	}
}

func TestDiskSpillWarmsRestart(t *testing.T) {
	dir := t.TempDir()
	key := Key([]pointsto.Source{{Name: "a.c", Text: "int *p, x;"}}, pointsto.Config{})
	var solves atomic.Int64
	solve := func(context.Context) (*export.Snapshot, error) {
		solves.Add(1)
		return testSnap("spill"), nil
	}

	st1 := mustStore(t, 0, dir)
	if _, _, err := st1.GetOrSolve(context.Background(), key, solve); err != nil {
		t.Fatal(err)
	}
	if s := st1.Stats(); s.DiskWrites != 1 {
		t.Fatalf("disk writes = %d, want 1", s.DiskWrites)
	}

	// A "restarted daemon": fresh store, same spill directory.
	st2 := mustStore(t, 0, dir)
	snap, cached, err := st2.GetOrSolve(context.Background(), key, solve)
	if err != nil || snap == nil {
		t.Fatalf("warm start: snap=%v cached=%v err=%v", snap, cached, err)
	}
	if got := solves.Load(); got != 1 {
		t.Errorf("solve ran %d times, want 1 (restart must warm from disk)", got)
	}
	if s := st2.Stats(); s.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", s.DiskHits)
	}
	if snap.Vars["p"][0] != "spill" {
		t.Errorf("snapshot content lost in spill round trip: %+v", snap)
	}

	// Get (query path) also warms from disk on a third fresh store.
	st3 := mustStore(t, 0, dir)
	if _, ok := st3.Get(key); !ok {
		t.Error("Get should find the spilled snapshot")
	}
}

func TestSolvePanicBecomesInternalFault(t *testing.T) {
	st := mustStore(t, 0, "")
	_, _, err := st.GetOrSolve(context.Background(), hexKey('e'), func(context.Context) (*export.Snapshot, error) {
		panic("solver bug")
	})
	if !errors.Is(err, fault.ErrInternal) {
		t.Fatalf("panicking solve returned %v, want ErrInternal", err)
	}
	if s := st.Stats(); s.Entries != 0 {
		t.Errorf("failed solve must not be cached; entries = %d", s.Entries)
	}
	// The store must still be usable for the same key afterwards.
	snap, _, err := st.GetOrSolve(context.Background(), hexKey('e'), func(context.Context) (*export.Snapshot, error) {
		return testSnap("recovered"), nil
	})
	if err != nil || snap == nil {
		t.Fatalf("after panic: %v", err)
	}
}

func TestSolveErrorPropagatesToAllWaiters(t *testing.T) {
	st := mustStore(t, 0, "")
	release := make(chan struct{})
	boom := fmt.Errorf("parse exploded")
	solve := func(context.Context) (*export.Snapshot, error) {
		<-release
		return nil, fault.New(fault.KindParse, "parse", "a.c:1", boom)
	}
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, _, err := st.GetOrSolve(context.Background(), hexKey('f'), solve)
			errs <- err
		}()
	}
	for st.Stats().InflightWaits < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, fault.ErrParse) || !errors.Is(err, boom) {
			t.Fatalf("waiter got %v, want the shared parse fault", err)
		}
	}
	if s := st.Stats(); s.Solves != 1 || s.Entries != 0 {
		t.Errorf("stats = %+v (want 1 solve, 0 entries)", s)
	}
}

// TestWarmRestartFromPtrsnap1Spill: a spill directory written before the
// ptrsnap2 container (testdata/ptrsnap1_spill.json, a ptrsnap1 file as
// those daemons wrote it) still verifies at boot and serves its snapshot.
func TestWarmRestartFromPtrsnap1Spill(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "ptrsnap1_spill.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "ptrsnap1 ") {
		t.Fatalf("fixture is not a ptrsnap1 container: %q", data[:16])
	}
	dir := t.TempDir()
	key := hexKey('d')
	if err := os.WriteFile(filepath.Join(dir, key+spillExt), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := mustStore(t, 0, dir)
	res, err := st.VerifySpill()
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked != 1 || res.Quarantined != 0 {
		t.Fatalf("VerifySpill = %+v, want the ptrsnap1 file checked and kept", res)
	}
	snap, ok := st.Get(key)
	if !ok {
		t.Fatal("the ptrsnap1 spill did not warm the store")
	}
	if snap.Strategy != "common-initial-seq" || snap.TotalFacts != 21 || !snap.HasVar("main") {
		t.Errorf("ptrsnap1 snapshot decoded wrong: %+v", snap)
	}
	if got := snap.PointsTo("gp"); len(got) != 1 || got[0] != "g" {
		t.Errorf("gp points to %v, want [g]", got)
	}
	if s := st.Stats(); s.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", s.DiskHits)
	}
}

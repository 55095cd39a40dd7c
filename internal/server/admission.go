package server

import (
	"container/list"
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// This file is the server's overload armor: admission control for the
// endpoints that can consume solver capacity. Each such endpoint owns an
// admission controller — a fixed number of concurrency slots plus a
// bounded wait queue. A request that finds a free slot runs; one that
// finds the queue full is rejected immediately with 429 ("overloaded") and
// a Retry-After estimate, because queueing it would only deepen the
// overload. Orthogonally, a request whose remaining deadline budget is
// smaller than the cached cost estimate for its program (an EWMA of past
// solve times, tracked per store key) is shed with 503
// ("would-miss-deadline") without consuming a slot at all: starting a
// solve whose answer will expire before it exists is pure waste.
//
// Requests that the cache can answer from memory, and requests that can
// piggyback on an in-flight solve for the same key, bypass admission
// entirely — admission protects solver capacity, not cheap reads.

// AdmissionConfig bounds one endpoint's solver consumption.
type AdmissionConfig struct {
	// MaxInflight is the number of requests allowed to hold solver
	// capacity concurrently; 0 disables admission control (unlimited).
	// Every solve runs its fixpoint on one goroutine, so one slot means
	// one solve on one core: size MaxInflight to the cores the daemon may
	// use for solving.
	MaxInflight int
	// MaxQueue is the number of requests allowed to wait for a slot beyond
	// MaxInflight; 0 selects 4×MaxInflight. Further requests get 429.
	MaxQueue int
}

// admission is one endpoint's controller.
type admission struct {
	slots    chan struct{} // nil = admission disabled
	maxQueue int64

	queued   atomic.Int64 // gauge: waiting for a slot
	inflight atomic.Int64 // gauge: holding a slot

	admitted        atomic.Int64
	shedQueueFull   atomic.Int64
	shedDeadline    atomic.Int64
	canceledWaiting atomic.Int64
}

func newAdmission(cfg AdmissionConfig) *admission {
	a := &admission{}
	if cfg.MaxInflight > 0 {
		a.slots = make(chan struct{}, cfg.MaxInflight)
		a.maxQueue = int64(cfg.MaxQueue)
		if a.maxQueue <= 0 {
			a.maxQueue = int64(4 * cfg.MaxInflight)
		}
	}
	return a
}

// acquire admits the request (returning the release func the caller must
// defer) or rejects it: KindOverloaded when the queue is full, KindCanceled
// when ctx dies while waiting.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	if a.slots == nil {
		a.admitted.Add(1)
		return func() {}, nil
	}
	taken := func() func() {
		a.admitted.Add(1)
		a.inflight.Add(1)
		return func() {
			a.inflight.Add(-1)
			<-a.slots
		}
	}
	select {
	case a.slots <- struct{}{}:
		return taken(), nil
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.shedQueueFull.Add(1)
		return nil, fault.Newf(fault.KindOverloaded, "admit", "",
			"solve queue full (%d waiting beyond %d slots)", a.maxQueue, cap(a.slots))
	}
	defer a.queued.Add(-1)
	select {
	case a.slots <- struct{}{}:
		return taken(), nil
	case <-ctx.Done():
		a.canceledWaiting.Add(1)
		return nil, fault.New(fault.KindCanceled, "admit", "", ctx.Err())
	}
}

// varz snapshots the controller's counters.
func (a *admission) varz() AdmissionEndpointVarz {
	v := AdmissionEndpointVarz{
		MaxQueue:        a.maxQueue,
		Inflight:        a.inflight.Load(),
		Queued:          a.queued.Load(),
		Admitted:        a.admitted.Load(),
		ShedQueueFull:   a.shedQueueFull.Load(),
		ShedDeadline:    a.shedDeadline.Load(),
		CanceledWaiting: a.canceledWaiting.Load(),
	}
	if a.slots != nil {
		v.MaxInflight = cap(a.slots)
	}
	return v
}

// --- per-key cost estimates ---

// costAlpha is the EWMA weight of the newest observation.
const costAlpha = 0.3

// maxCostKeys bounds the cost table; beyond it the least recently touched
// estimate is dropped (an evicted key just loses shed protection until it
// is solved again).
const maxCostKeys = 4096

// costTable tracks an EWMA of solve wall time per store key, plus a global
// mean used for Retry-After estimates. All methods are concurrency-safe.
type costTable struct {
	mu      sync.Mutex
	entries map[string]*list.Element // key → element; value *costEntry
	lru     *list.List

	totalNS atomic.Int64
	totalN  atomic.Int64
}

type costEntry struct {
	key  string
	ewma time.Duration
}

func newCostTable() *costTable {
	return &costTable{entries: make(map[string]*list.Element), lru: list.New()}
}

// observe folds one measured solve duration into the key's estimate.
func (ct *costTable) observe(key string, d time.Duration) {
	ct.totalNS.Add(d.Nanoseconds())
	ct.totalN.Add(1)
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if el, ok := ct.entries[key]; ok {
		e := el.Value.(*costEntry)
		e.ewma = time.Duration(costAlpha*float64(d) + (1-costAlpha)*float64(e.ewma))
		ct.lru.MoveToFront(el)
		return
	}
	ct.entries[key] = ct.lru.PushFront(&costEntry{key: key, ewma: d})
	for len(ct.entries) > maxCostKeys {
		tail := ct.lru.Back()
		delete(ct.entries, tail.Value.(*costEntry).key)
		ct.lru.Remove(tail)
	}
}

// estimate returns the key's expected solve cost, when one is known.
func (ct *costTable) estimate(key string) (time.Duration, bool) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	el, ok := ct.entries[key]
	if !ok {
		return 0, false
	}
	ct.lru.MoveToFront(el)
	return el.Value.(*costEntry).ewma, true
}

// meanSolve is the global mean solve duration (zero until one completes).
func (ct *costTable) meanSolve() time.Duration {
	n := ct.totalN.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(ct.totalNS.Load() / n)
}

// keys returns the number of tracked estimates (a /varz gauge).
func (ct *costTable) keys() int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return len(ct.entries)
}

// --- wiring ---

// retryAfterError decorates an admission rejection with the backoff hint
// the wire contract carries as a Retry-After header.
type retryAfterError struct {
	err   error
	after int // seconds
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

// retryAfter estimates how long a rejected client should back off: the
// queue ahead of it, costed at the mean solve time, divided across the
// endpoint's slots — clamped to [1s, 60s] so the hint is always actionable.
func (s *Server) retryAfter(a *admission) int {
	mean := s.costs.meanSolve()
	if mean <= 0 {
		mean = 250 * time.Millisecond // cold daemon: a guess beats silence
	}
	waiting := float64(a.queued.Load() + a.inflight.Load() + 1)
	slots := 1.0
	if a.slots != nil {
		slots = float64(cap(a.slots))
	}
	secs := math.Ceil(waiting * mean.Seconds() / slots)
	return int(math.Min(math.Max(secs, 1), 60))
}

// admitSolve runs the admission decision for one request about to consume
// solver capacity on endpoint. The caller must defer the returned release.
// Order matters: a memory hit or a joinable in-flight solve bypasses
// admission (the caller detects that itself via Peek/Joinable); here the
// request is known to need real work.
func (s *Server) admitSolve(ctx context.Context, endpoint, key string) (release func(), err error) {
	a := s.admissions[endpoint]
	if a == nil {
		return func() {}, nil
	}
	// Deadline-aware shedding: refusing in O(1) beats solving for nobody.
	if deadline, ok := ctx.Deadline(); ok {
		if est, known := s.costs.estimate(key); known {
			if remaining := time.Until(deadline); remaining < est {
				a.shedDeadline.Add(1)
				ferr := fault.Newf(fault.KindDeadline, "admit", "",
					"remaining deadline budget %v is below the estimated solve cost %v", remaining.Round(time.Millisecond), est.Round(time.Millisecond))
				return nil, &retryAfterError{err: ferr, after: s.retryAfter(a)}
			}
		}
	}
	release, err = a.acquire(ctx)
	if err != nil {
		if errors.Is(err, fault.ErrOverloaded) {
			return nil, &retryAfterError{err: err, after: s.retryAfter(a)}
		}
		return nil, err
	}
	return release, nil
}

// AdmissionEndpointVarz is the wire form of one endpoint's admission
// counters.
type AdmissionEndpointVarz struct {
	MaxInflight     int   `json:"max_inflight"`
	MaxQueue        int64 `json:"max_queue"`
	Inflight        int64 `json:"inflight"`         // gauge: holding a slot
	Queued          int64 `json:"queued"`           // gauge: waiting for a slot
	Admitted        int64 `json:"admitted"`         // requests granted a slot
	ShedQueueFull   int64 `json:"shed_queue_full"`  // 429s: queue was full
	ShedDeadline    int64 `json:"shed_deadline"`    // 503s: would miss deadline
	CanceledWaiting int64 `json:"canceled_waiting"` // gave up while queued
}

// AdmissionVarz aggregates the admission layer for /varz.
type AdmissionVarz struct {
	CostKeys  int                              `json:"cost_keys"` // tracked per-key solve-cost estimates
	Endpoints map[string]AdmissionEndpointVarz `json:"endpoints"`
}

// retryAfterSeconds extracts the backoff hint a response should carry.
func retryAfterSeconds(err error) (int, bool) {
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.after, true
	}
	return 0, false
}

// setRetryAfter stamps the header when the error carries a hint.
func setRetryAfter(w http.ResponseWriter, err error) int {
	if secs, ok := retryAfterSeconds(err); ok {
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		return secs
	}
	return 0
}

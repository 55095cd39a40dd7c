package server

import (
	"sync"

	"repro/pointsto"
)

// graphCache keeps resumable constraint graphs (pointsto.Graph) keyed by
// the same content hash the result cache uses, so a later /v1/analyze can
// name one as its base and solve the edited program warm. Graphs are
// registered after successful resumable solves and evicted count-based LRU:
// a graph pins its front-end result and solved core result, plus the warm
// state (fingerprints, fact lists, statement mirror) its first resume
// builds, so the bound is on residency, not bytes. Unlike sessions there
// is no creation flight — graphs are only ever stored by a solve that
// already ran.
type graphCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*graphEntry

	clock   int64
	stored  int64
	evicted int64
}

type graphEntry struct {
	g    *pointsto.Graph
	tick int64
}

func newGraphCache(max int) *graphCache {
	if max <= 0 {
		max = 64
	}
	return &graphCache{max: max, entries: make(map[string]*graphEntry)}
}

// get returns the resident graph for key, refreshing its LRU position.
func (c *graphCache) get(key string) (*pointsto.Graph, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.clock++
	e.tick = c.clock
	return e.g, true
}

// put stores (or refreshes) the graph for key, evicting LRU entries beyond
// the cap.
func (c *graphCache) put(key string, g *pointsto.Graph) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if e, ok := c.entries[key]; ok {
		e.g, e.tick = g, c.clock
		return
	}
	c.entries[key] = &graphEntry{g: g, tick: c.clock}
	c.stored++
	for len(c.entries) > c.max {
		var oldestKey string
		var oldest int64
		first := true
		for k, e := range c.entries {
			if first || e.tick < oldest {
				oldestKey, oldest, first = k, e.tick, false
			}
		}
		delete(c.entries, oldestKey)
		c.evicted++
	}
}

// counts snapshots the cache gauges for /varz.
func (c *graphCache) counts() (resident, stored, evicted int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(len(c.entries)), c.stored, c.evicted
}

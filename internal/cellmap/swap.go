package cellmap

import (
	"sync/atomic"

	"cellspot/internal/obs"
)

// Source yields the map a request handler should serve right now, plus the
// generation number it belongs to. Implementations must return internally
// consistent pairs: handlers call Current once per request and answer the
// whole request from that one map.
type Source interface {
	Current() (*Map, uint64)
}

// Static wraps an immutable map as a Source at generation 0.
type Static struct{ M *Map }

// Current returns the wrapped map.
func (s Static) Current() (*Map, uint64) { return s.M, 0 }

// versioned pairs a map with its generation so both swap in one atomic
// pointer store.
type versioned struct {
	m   *Map
	gen uint64
}

// Swappable serves a map that can be replaced without downtime: lookups
// load the current generation with one atomic pointer read, and Swap
// publishes a fully built replacement in one atomic pointer write. In-flight
// requests keep the generation they loaded; there is no window in which a
// reader can observe a partially swapped map.
type Swappable struct {
	cur atomic.Pointer[versioned]

	// Swap-path metrics; nil without EnableMetrics (obs no-ops on nil).
	mSwaps   *obs.Counter
	mGen     *obs.Gauge
	mEntries *obs.Gauge
}

// NewSwappable returns a handle serving m as generation gen. m must be
// non-nil (use Empty for a placeholder before the first real generation).
func NewSwappable(m *Map, gen uint64) *Swappable {
	s := &Swappable{}
	s.cur.Store(&versioned{m: m, gen: gen})
	return s
}

// Empty returns a valid map with no entries: every lookup misses. It is the
// placeholder a server starts from when no generation exists yet.
func Empty(period string) *Map { return &Map{Period: period} }

// EnableMetrics registers the swap-path metrics on reg and initializes them
// from the current generation:
//
//	cellmap_generation  gauge: generation number currently served
//	cellmap_entries     gauge: prefixes in the served map
//	cellmap_swap_total  counter: completed hot swaps
func (s *Swappable) EnableMetrics(reg *obs.Registry) {
	s.mGen = reg.Gauge("cellmap_generation", "Map generation currently served.")
	s.mEntries = reg.Gauge("cellmap_entries", "Prefixes in the served map.")
	s.mSwaps = reg.Counter("cellmap_swap_total", "Completed map hot swaps.")
	m, gen := s.Current()
	s.mGen.Set(int64(gen))
	s.mEntries.Set(int64(m.Len()))
}

// Current returns the served map and its generation.
func (s *Swappable) Current() (*Map, uint64) {
	v := s.cur.Load()
	return v.m, v.gen
}

// Generation returns the generation number currently served.
func (s *Swappable) Generation() uint64 {
	return s.cur.Load().gen
}

// Swap atomically replaces the served map. Readers that loaded the old
// generation finish against it; new loads observe the new one.
func (s *Swappable) Swap(m *Map, gen uint64) {
	s.cur.Store(&versioned{m: m, gen: gen})
	s.mSwaps.Inc()
	s.mGen.Set(int64(gen))
	s.mEntries.Set(int64(m.Len()))
}

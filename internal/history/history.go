// Package history serves the snapshot store's retained past: an immutable
// per-process index over every published map generation, answering
// generation-addressed lookups (`/v1/lookup?ip=X&gen=N`) and label
// timelines (`/v1/history?ip=X` — "when did this block become cellular?").
//
// The index holds cheap metadata (sequence, build time, entry count, day
// window) for ALL retained generations — read at boot and refreshed on
// every swap — but keeps only a bounded LRU of generations resident as
// loaded cellmap.Maps. An evicted generation is reloaded from disk on the
// next request that needs it. Loads pin the generation in the snapshot
// store for their duration, so a concurrent Prune can never tear a read:
// a generation either loads completely or the request gets a clean 404
// naming the oldest seq still available. cellmap.Mount serves the routes
// over an Index, which satisfies cellmap.Resolver.
package history

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cellspot/internal/cellmap"
	"cellspot/internal/obs"
	"cellspot/internal/snapshot"
)

const (
	// MapFile is the published map's file name inside a generation.
	MapFile = "cellmap.jsonl"
	// MetaFile is the per-generation metadata sidecar's file name.
	MetaFile = "meta.json"
	// DefaultMaxResident is the LRU bound on generations held in memory.
	DefaultMaxResident = 4

	metaFormat = "cellspot-genmeta/1"
)

// GenMeta is the cheap per-generation metadata the index keeps for every
// retained generation. WriteGeneration writes it as a meta.json sidecar
// next to the map; generations without a well-formed sidecar get a
// fallback derived from the map header and directory mtime (with RAT
// unknown, reported false).
type GenMeta struct {
	Format    string  `json:"format"`
	BuiltUnix int64   `json:"built_unix"` // publish wall-clock, seconds
	Entries   int     `json:"entries"`
	Period    string  `json:"period"`
	Threshold float64 `json:"threshold"`
	// DayFirst/DayLast bound the live window's day span ("2016-12-25");
	// empty for offline/scenario builds that have no day window.
	DayFirst string `json:"day_first,omitempty"`
	DayLast  string `json:"day_last,omitempty"`
	// RAT reports whether the map carries the per-RAT column.
	RAT bool `json:"rat"`
}

// WriteGeneration writes m and its metadata sidecar into a generation's
// staging directory: the one layout every publisher uses. The sidecar's
// fields come from the map and the clock; dayFirst and dayLast are the
// live window's day span, empty for builds that have none.
func WriteGeneration(dir string, m *cellmap.Map, dayFirst, dayLast string) error {
	if err := m.WriteFile(filepath.Join(dir, MapFile)); err != nil {
		return err
	}
	return writeMeta(dir, GenMeta{
		BuiltUnix: time.Now().Unix(),
		Entries:   m.Len(),
		Period:    m.Period,
		Threshold: m.Threshold,
		DayFirst:  dayFirst,
		DayLast:   dayLast,
		RAT:       m.HasRAT(),
	})
}

// writeMeta writes the metadata sidecar into dir, stamping the format
// name.
func writeMeta(dir string, meta GenMeta) error {
	meta.Format = metaFormat
	raw, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("history: encode meta: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, MetaFile), append(raw, '\n'), 0o644)
}

// GenInfo pairs a generation sequence with its metadata.
type GenInfo struct {
	Seq  uint64  `json:"generation"`
	Meta GenMeta `json:"meta"`
}

// Config parameterizes an Index.
type Config struct {
	// Store is the snapshot store to index. Required.
	Store *snapshot.Store
	// MaxResident bounds how many generations stay loaded in memory
	// (DefaultMaxResident when <= 0). The bound applies to fully loaded
	// maps; in-flight loads are never evicted.
	MaxResident int
	// Metrics optionally registers the index's counters/gauges.
	Metrics *obs.Registry
}

// resident is one loaded (or loading) generation. ready is closed when the
// load finishes; afterwards exactly one of m/err is set.
type resident struct {
	ready   chan struct{}
	m       *cellmap.Map
	err     error
	lastUse uint64 // LRU clock tick of the last touch
}

// Index is the per-process history index. All methods are safe for
// concurrent use; the underlying maps are immutable once loaded.
type Index struct {
	cfg Config

	mu       sync.Mutex
	gens     []GenInfo // ascending seq, metadata for every retained gen
	resident map[uint64]*resident
	clock    uint64 // LRU clock

	mLoads      *obs.Counter
	mEvictions  *obs.Counter
	mPruned404s *obs.Counter
	mResident   *obs.Gauge
	mRetained   *obs.Gauge
}

// New opens an index over the store and performs the boot metadata scan.
func New(cfg Config) (*Index, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("history: Config.Store is required")
	}
	if cfg.MaxResident <= 0 {
		cfg.MaxResident = DefaultMaxResident
	}
	ix := &Index{cfg: cfg, resident: make(map[uint64]*resident)}
	if reg := cfg.Metrics; reg != nil {
		ix.mLoads = reg.Counter("history_generation_loads_total", "Generations loaded from disk into the history index.")
		ix.mEvictions = reg.Counter("history_generation_evictions_total", "Resident generations evicted by the history LRU.")
		ix.mPruned404s = reg.Counter("history_pruned_requests_total", "Generation-addressed requests answered 404 because the seq is not retained.")
		ix.mResident = reg.Gauge("history_resident_generations", "Generations currently loaded in the history index.")
		ix.mRetained = reg.Gauge("history_retained_generations", "Generations the history index knows about on disk.")
	}
	if err := ix.Refresh(); err != nil {
		return nil, err
	}
	return ix, nil
}

// Refresh rescans the store's retained generations, reading metadata for
// newly published ones and dropping pruned ones (including their resident
// maps). Called at boot and after every observed swap; cheap for unchanged
// stores (one ReadDir plus meta reads for unseen seqs only).
func (ix *Index) Refresh() error {
	gens, err := ix.cfg.Store.Generations()
	if err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()

	known := make(map[uint64]GenInfo, len(ix.gens))
	for _, gi := range ix.gens {
		known[gi.Seq] = gi
	}
	out := make([]GenInfo, 0, len(gens))
	onDisk := make(map[uint64]bool, len(gens))
	for _, g := range gens {
		onDisk[g.Seq] = true
		if gi, ok := known[g.Seq]; ok {
			out = append(out, gi)
			continue
		}
		meta, err := readMeta(g)
		if err != nil {
			// A generation pruned between ReadDir and the meta read, or
			// debris without a map: skip it rather than fail the scan.
			continue
		}
		out = append(out, GenInfo{Seq: g.Seq, Meta: meta})
	}
	// out is already ascending: store listing is sorted and the merge
	// preserves order.
	ix.gens = out
	for seq, r := range ix.resident {
		if !onDisk[seq] {
			// Only fully loaded entries are dropped; an in-flight load
			// holds a store pin, so its directory cannot have vanished.
			select {
			case <-r.ready:
				delete(ix.resident, seq)
			default:
			}
		}
	}
	ix.mRetained.Set(int64(len(ix.gens)))
	ix.mResident.Set(int64(len(ix.resident)))
	return nil
}

// readMeta loads a generation's sidecar, falling back to the map header
// plus directory mtime when the sidecar is missing or malformed.
func readMeta(g snapshot.Generation) (GenMeta, error) {
	raw, err := os.ReadFile(g.Path(MetaFile))
	if err == nil {
		var meta GenMeta
		if err := json.Unmarshal(raw, &meta); err == nil && meta.Format == metaFormat {
			return meta, nil
		}
		// Malformed sidecar: fall through to the header fallback.
	}
	st, err := cellmap.ReadStats(g.Path(MapFile))
	if err != nil {
		return GenMeta{}, err
	}
	meta := GenMeta{
		Entries:   st.Entries,
		Period:    st.Period,
		Threshold: st.Threshold,
	}
	if fi, err := os.Stat(g.Dir); err == nil {
		meta.BuiltUnix = fi.ModTime().Unix()
	}
	return meta, nil
}

// Generations returns metadata for every retained generation, ascending.
func (ix *Index) Generations() []GenInfo {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return append([]GenInfo(nil), ix.gens...)
}

var _ cellmap.Resolver = (*Index)(nil)

// GenerationsBody is the /v1/generations answer; with TimelineBody and At
// it makes the index a cellmap.Resolver.
func (ix *Index) GenerationsBody() any {
	return struct {
		Generations []GenInfo `json:"generations"`
	}{ix.Generations()}
}

// oldestLocked requires ix.mu held.
func (ix *Index) oldestLocked() uint64 {
	if len(ix.gens) == 0 {
		return 0
	}
	return ix.gens[0].Seq
}

// knownLocked reports whether seq is in the retained metadata list.
func (ix *Index) knownLocked(seq uint64) bool {
	i := sort.Search(len(ix.gens), func(i int) bool { return ix.gens[i].Seq >= seq })
	return i < len(ix.gens) && ix.gens[i].Seq == seq
}

// At returns the map of a retained generation, loading (and possibly
// evicting) as needed. A seq the store does not retain returns a
// *cellmap.PrunedError carrying the oldest available seq. Concurrent
// calls for the same seq share one load.
func (ix *Index) At(seq uint64) (*cellmap.Map, error) {
	ix.mu.Lock()
	if r, ok := ix.resident[seq]; ok {
		ix.clock++
		r.lastUse = ix.clock
		ix.mu.Unlock()
		<-r.ready
		// A failed load was removed from the table by the loader; a
		// caller that raced it just retries through the normal path.
		if r.err != nil {
			return nil, r.err
		}
		return r.m, nil
	}
	if !ix.knownLocked(seq) {
		// The seq may have been published after our last refresh (a
		// lookup racing the store poller): rescan once before 404ing.
		ix.mu.Unlock()
		if err := ix.Refresh(); err != nil {
			return nil, err
		}
		ix.mu.Lock()
		if !ix.knownLocked(seq) {
			perr := &cellmap.PrunedError{Seq: seq, Oldest: ix.oldestLocked()}
			ix.mu.Unlock()
			ix.mPruned404s.Inc()
			return nil, perr
		}
		if r, ok := ix.resident[seq]; ok { // loaded by a racing caller
			ix.clock++
			r.lastUse = ix.clock
			ix.mu.Unlock()
			<-r.ready
			if r.err != nil {
				return nil, r.err
			}
			return r.m, nil
		}
	}
	ix.clock++
	r := &resident{ready: make(chan struct{}), lastUse: ix.clock}
	ix.resident[seq] = r
	ix.mu.Unlock()

	m, err := ix.load(seq)

	ix.mu.Lock()
	r.m, r.err = m, err
	if err != nil {
		delete(ix.resident, seq)
	} else {
		ix.evictLocked()
	}
	ix.mResident.Set(int64(len(ix.resident)))
	ix.mu.Unlock()
	close(r.ready)

	if err != nil {
		var perr *cellmap.PrunedError
		if errors.As(err, &perr) {
			ix.mPruned404s.Inc()
		}
		return nil, err
	}
	ix.mLoads.Inc()
	return m, nil
}

// load reads one generation's map from disk under a store pin, so Prune
// cannot remove the directory mid-read.
func (ix *Index) load(seq uint64) (*cellmap.Map, error) {
	gen, ok := ix.cfg.Store.Pin(seq)
	if !ok {
		// Pruned between the metadata scan and this load: resync the
		// metadata so the 404 names the true oldest.
		if err := ix.Refresh(); err != nil {
			return nil, err
		}
		ix.mu.Lock()
		perr := &cellmap.PrunedError{Seq: seq, Oldest: ix.oldestLocked()}
		ix.mu.Unlock()
		return nil, perr
	}
	defer ix.cfg.Store.Unpin(seq)
	m, err := cellmap.ReadFile(gen.Path(MapFile))
	if err != nil {
		return nil, fmt.Errorf("history: read gen %d: %w", seq, err)
	}
	return m, nil
}

// evictLocked drops least-recently-used loaded generations beyond the
// resident bound. In-flight loads are skipped (their readers hold the
// entry); requires ix.mu held.
func (ix *Index) evictLocked() {
	for len(ix.resident) > ix.cfg.MaxResident {
		var victim uint64
		var oldest uint64
		found := false
		for seq, r := range ix.resident {
			select {
			case <-r.ready:
			default:
				if r.m == nil && r.err == nil {
					continue // still loading
				}
			}
			if !found || r.lastUse < oldest {
				victim, oldest, found = seq, r.lastUse, true
			}
		}
		if !found {
			return
		}
		delete(ix.resident, victim)
		ix.mEvictions.Inc()
	}
}

// ChangePoint is one step of a block's label timeline: the state the
// address had from this generation onward, emitted when the state (the
// cellular bit, covering prefix, or owning ASN) differs from the previous
// retained generation. The first retained generation always emits, so a
// timeline's first entry is the oldest known state.
type ChangePoint struct {
	Generation uint64  `json:"generation"`
	Period     string  `json:"period,omitempty"`
	Cellular   bool    `json:"cellular"`
	Prefix     string  `json:"prefix,omitempty"`
	ASN        uint32  `json:"asn,omitempty"`
	Ratio      float64 `json:"ratio,omitempty"`
	// RAT is the [3G, 4G, 5G] split at this change-point; absent on
	// legacy generations without the RAT column.
	RAT []float64 `json:"rat,omitempty"`
}

// TimelineResponse is the /v1/history answer.
type TimelineResponse struct {
	Addr string `json:"addr"`
	// OldestGen/NewestGen bound the retained range the walk covered.
	OldestGen uint64 `json:"oldest_generation"`
	NewestGen uint64 `json:"newest_generation"`
	// Examined counts generations actually compared (those pruned
	// mid-walk are skipped, never guessed about).
	Examined int           `json:"generations_examined"`
	Changes  []ChangePoint `json:"changes"`
}

// sameState reports whether two change-points describe the same label
// state. Ratio and RAT drift do not open a new change-point — they are
// continuous measurements, not label transitions — but the values attached
// to each emitted point are those of its generation.
func sameState(a, b ChangePoint) bool {
	return a.Cellular == b.Cellular && a.Prefix == b.Prefix && a.ASN == b.ASN
}

// Timeline walks every retained generation in ascending order and returns
// the address's label change-points. Generations pruned while the walk is
// in flight are skipped. name is the textual address to echo.
func (ix *Index) Timeline(addr netip.Addr, name string) (TimelineResponse, error) {
	gens := ix.Generations()
	resp := TimelineResponse{Addr: name}
	var prev ChangePoint
	first := true
	for _, gi := range gens {
		m, err := ix.At(gi.Seq)
		if err != nil {
			var perr *cellmap.PrunedError
			if errors.As(err, &perr) {
				continue
			}
			return TimelineResponse{}, err
		}
		cur := ChangePoint{Generation: gi.Seq, Period: m.Period}
		if e, ok := m.Lookup(addr); ok {
			cur.Cellular = true
			cur.Prefix = e.Prefix.String()
			cur.ASN = e.ASN
			cur.Ratio = e.Ratio
			cur.RAT = e.RAT
		}
		if resp.Examined == 0 {
			resp.OldestGen = gi.Seq
		}
		resp.NewestGen = gi.Seq
		resp.Examined++
		if first || !sameState(prev, cur) {
			resp.Changes = append(resp.Changes, cur)
			first = false
		}
		prev = cur
	}
	return resp, nil
}

// TimelineBody is Timeline as the /v1/history answer of a cellmap.Resolver.
func (ix *Index) TimelineBody(addr netip.Addr, name string) (any, error) {
	return ix.Timeline(addr, name)
}

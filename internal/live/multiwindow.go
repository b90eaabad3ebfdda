package live

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/netaddr"
)

// DefaultWindowDays matches the paper's seven-day DEMAND smoothing window.
const DefaultWindowDays = 7

// secondsPerDay converts record timestamps to epoch-day bucket keys.
const secondsPerDay = 86400

// epochDay returns the UTC day number a timestamp falls in.
func epochDay(t time.Time) int64 {
	s := t.Unix()
	// Floor division, so pre-1970 timestamps (malformed clocks) still
	// bucket consistently instead of rounding toward zero.
	d := s / secondsPerDay
	if s%secondsPerDay < 0 {
		d--
	}
	return d
}

// formatDay renders an epoch day as "2006-01-02".
func formatDay(d int64) string {
	return time.Unix(d*secondsPerDay, 0).UTC().Format("2006-01-02")
}

type dayBucket struct {
	agg     *beacon.Aggregate
	records int
}

// DayState is one day bucket of a window, serialized for a checkpoint.
// Blocks are sorted so the bytes are deterministic for a given state.
type DayState struct {
	Day    int64        `json:"day"`
	Blocks []BlockState `json:"blocks"`
}

// BlockState is one block's tally inside a day bucket. The per-RAT fields
// mirror beacon.Counts; they are zero (and omitted) for legacy data, so
// old checkpoints decode unchanged.
type BlockState struct {
	Block  string `json:"block"` // netaddr.FormatIndex token
	Hits   int    `json:"hits"`
	API    int    `json:"api"`
	Cell   int    `json:"cell"`
	Cell3G int    `json:"cell_3g,omitempty"`
	Cell4G int    `json:"cell_4g,omitempty"`
	Cell5G int    `json:"cell_5g,omitempty"`
}

// decodeBuckets rebuilds a bucket map from its serialized form. It rejects
// negative counts and counts that overflow when merged, so a restored
// window's record count always equals the sum of its blocks' hits.
func decodeBuckets(states []DayState) (map[int64]*dayBucket, int, error) {
	buckets := make(map[int64]*dayBucket, len(states))
	records := 0
	for _, ds := range states {
		b := buckets[ds.Day]
		if b == nil {
			b = &dayBucket{agg: beacon.NewAggregate()}
			buckets[ds.Day] = b
		}
		for _, bs := range ds.Blocks {
			blk, err := netaddr.ParseIndex(bs.Block)
			if err != nil {
				return nil, 0, fmt.Errorf("bucket day %d: %w", ds.Day, err)
			}
			n := beacon.Counts{
				Hits: bs.Hits, API: bs.API, Cell: bs.Cell,
				Cell3G: bs.Cell3G, Cell4G: bs.Cell4G, Cell5G: bs.Cell5G,
			}
			if negative(n) {
				return nil, 0, fmt.Errorf("bucket day %d block %s: negative count", ds.Day, bs.Block)
			}
			b.agg.AddCounts(blk, n)
			// Hits equals the bucket's record count exactly, because the
			// live path adds one hit per record.
			b.records += bs.Hits
			records += bs.Hits
			// Sums of non-negative ints wrap negative on overflow.
			if negative(*b.agg.PerBlock[blk]) || records < 0 {
				return nil, 0, fmt.Errorf("bucket day %d block %s: count overflow", ds.Day, bs.Block)
			}
		}
	}
	return buckets, records, nil
}

func negative(c beacon.Counts) bool {
	return c.Hits < 0 || c.API < 0 || c.Cell < 0 || c.Cell3G < 0 || c.Cell4G < 0 || c.Cell5G < 0
}

// MultiWindow is the aggregation plane's sliding window: per-day BEACON
// buckets kept per source (a federated collector, or the local spool), so
// observations stay attributable — per-source record counts, straggler
// detection, and a checkpoint that restores each source's contribution
// exactly. Records fold into the bucket of their UTC day.
//
// The anchor is global: the newest day observed across ALL sources, and
// every source's buckets older than anchor-span are pruned. The merged
// aggregate therefore depends only on the record multiset, never on
// arrival order or on how records are split across sources: a record
// survives into Merged exactly when its day lies within the final window,
// because late-arriving old records land in buckets that pruning removes
// wholesale. That is what makes a federated build byte-identical to a
// single-collector offline build over the same records.
//
// Retention contract: with the anchor at day A and a span of D days, the
// window retains exactly the days (A-D, A]. A record can leave the window
// two ways, and the window counts them separately:
//
//   - pruned: its day was inside the window when it arrived, and a later
//     record advanced the anchor past it. Normal retention — the record had
//     its chance to be served.
//   - straggler: it arrived already older than A-D+1 (a collector lagging
//     more than the span behind the fleet's newest day, a clock-skewed
//     device, an out-of-order day in a shipped shard) and was dropped on
//     arrival, never contributing to any published map.
//
// Stale() reports the sum of both; Stragglers() isolates the second, which
// is the signal a federated deployment watches.
type MultiWindow struct {
	days       int
	latest     int64
	nonEmpty   bool
	sources    map[string]map[int64]*dayBucket
	records    int
	stale      int
	stragglers int
}

// NewMultiWindow returns an empty multi-source window spanning the given
// number of days (DefaultWindowDays when days <= 0).
func NewMultiWindow(days int) *MultiWindow {
	if days <= 0 {
		days = DefaultWindowDays
	}
	return &MultiWindow{days: days, sources: make(map[string]map[int64]*dayBucket)}
}

func (m *MultiWindow) oldest() int64 { return m.latest - int64(m.days) + 1 }

// Add folds one record from the named source into its day bucket,
// advancing the global anchor when the record opens a newer day. It
// reports false when the record is older than the window and was dropped.
func (m *MultiWindow) Add(source string, rec beacon.Record) bool {
	day := epochDay(rec.Time)
	if !m.nonEmpty {
		m.latest = day
		m.nonEmpty = true
	}
	if day > m.latest {
		m.latest = day
		m.prune()
	}
	if day < m.oldest() {
		m.stale++
		m.stragglers++
		return false
	}
	buckets := m.sources[source]
	if buckets == nil {
		buckets = make(map[int64]*dayBucket)
		m.sources[source] = buckets
	}
	b := buckets[day]
	if b == nil {
		b = &dayBucket{agg: beacon.NewAggregate()}
		buckets[day] = b
	}
	b.agg.AddRecord(rec)
	b.records++
	m.records++
	return true
}

// prune drops buckets of every source that fell out of the window.
func (m *MultiWindow) prune() {
	min := m.oldest()
	for src, buckets := range m.sources {
		for day, b := range buckets {
			if day < min {
				m.records -= b.records
				m.stale += b.records
				delete(buckets, day)
			}
		}
		if len(buckets) == 0 {
			delete(m.sources, src)
		}
	}
}

// Records returns the number of records in retained buckets, all sources.
func (m *MultiWindow) Records() int { return m.records }

// Sources returns how many sources have records in the window.
func (m *MultiWindow) Sources() int { return len(m.sources) }

// RecordsBySource returns per-source retained record counts.
func (m *MultiWindow) RecordsBySource() map[string]int {
	out := make(map[string]int, len(m.sources))
	for src, buckets := range m.sources {
		n := 0
		for _, b := range buckets {
			n += b.records
		}
		out[src] = n
	}
	return out
}

// Stale returns the number of records dropped as older than the window,
// on arrival or by a later slide.
func (m *MultiWindow) Stale() int { return m.stale }

// Stragglers returns the number of records dropped on arrival as older
// than the window (see the retention contract on MultiWindow).
func (m *MultiWindow) Stragglers() int { return m.stragglers }

// Merged returns the aggregate over every retained bucket of every source.
// Counts are integers, so the merge is identical regardless of source,
// bucket, or arrival order.
func (m *MultiWindow) Merged() *beacon.Aggregate {
	out := beacon.NewAggregate()
	for _, buckets := range m.sources {
		for _, b := range buckets {
			out.Merge(b.agg)
		}
	}
	return out
}

// DayRange returns the first and last retained day as "2006-01-02"
// strings; ok is false on an empty window. Publishers record the span in
// generation metadata so the history index can show each generation's day
// window without parsing Period labels.
func (m *MultiWindow) DayRange() (first, last string, ok bool) {
	if !m.nonEmpty {
		return "", "", false
	}
	return formatDay(m.oldest()), formatDay(m.latest), true
}

// Period labels the window for the published map, e.g.
// "live:2016-12-25..2016-12-31" — the (at most) days-long span ending at
// the newest day observed. An empty window is labeled "live:empty".
func (m *MultiWindow) Period() string {
	first, last, ok := m.DayRange()
	if !ok {
		return "live:empty"
	}
	return "live:" + first + ".." + last
}

// MultiWindowState is a MultiWindow serialized for a checkpoint. Sources
// are sorted by collector ID and buckets by day, so the encoding is
// deterministic for a given window state.
type MultiWindowState struct {
	Days     int           `json:"window_days"`
	Latest   int64         `json:"latest_day"`
	NonEmpty bool          `json:"non_empty"`
	Sources  []SourceState `json:"sources"`
}

// SourceState is one collector's retained buckets.
type SourceState struct {
	Collector string     `json:"collector"`
	Buckets   []DayState `json:"buckets"`
}

// appendState appends the window's MultiWindowState JSON form to dst: byte
// for byte what json.Marshal of that struct gives, written in one pass
// straight from the buckets instead of through the intermediate
// []BlockState and the reflective encoder. A refresh encodes every
// retained bucket, so this is on the freshness path.
func (m *MultiWindow) appendState(dst []byte) []byte {
	dst = append(dst, `{"window_days":`...)
	dst = strconv.AppendInt(dst, int64(m.days), 10)
	dst = append(dst, `,"latest_day":`...)
	dst = strconv.AppendInt(dst, m.latest, 10)
	dst = append(dst, `,"non_empty":`...)
	dst = strconv.AppendBool(dst, m.nonEmpty)
	dst = append(dst, `,"sources":`...)
	if len(m.sources) == 0 {
		return append(dst, "null}"...)
	}
	type blockCounts struct {
		blk netaddr.Block
		c   *beacon.Counts
	}
	var blocks []blockCounts
	dst = append(dst, '[')
	for i, src := range slices.Sorted(maps.Keys(m.sources)) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"collector":`...)
		dst = beacon.AppendJSONString(dst, src)
		dst = append(dst, `,"buckets":[`...)
		buckets := m.sources[src]
		for j, day := range slices.Sorted(maps.Keys(buckets)) {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"day":`...)
			dst = strconv.AppendInt(dst, day, 10)
			dst = append(dst, `,"blocks":`...)
			per := buckets[day].agg.PerBlock
			if len(per) == 0 {
				dst = append(dst, "null}"...)
				continue
			}
			blocks = blocks[:0]
			for blk, c := range per {
				blocks = append(blocks, blockCounts{blk, c})
			}
			slices.SortFunc(blocks, func(x, y blockCounts) int { return x.blk.Compare(y.blk) })
			dst = append(dst, '[')
			for k, bc := range blocks {
				if k > 0 {
					dst = append(dst, ',')
				}
				dst = appendBlockState(dst, bc.blk, bc.c)
			}
			dst = append(dst, "]}"...)
		}
		dst = append(dst, "]}"...)
	}
	return append(dst, "]}"...)
}

// appendBlockState appends one block's BlockState as encoding/json
// writes it: the block as its netaddr.FormatIndex token, zero per-RAT
// counts omitted.
func appendBlockState(dst []byte, blk netaddr.Block, c *beacon.Counts) []byte {
	dst = append(dst, `{"block":"`...)
	dst = append(dst, blk.Fam().String()...)
	dst = append(dst, '-')
	dst = strconv.AppendUint(dst, blk.Key(), 16)
	dst = beacon.AppendIntField(dst, `","hits":`, int64(c.Hits))
	dst = beacon.AppendIntField(dst, `,"api":`, int64(c.API))
	dst = beacon.AppendIntField(dst, `,"cell":`, int64(c.Cell))
	if c.Cell3G != 0 {
		dst = beacon.AppendIntField(dst, `,"cell_3g":`, int64(c.Cell3G))
	}
	if c.Cell4G != 0 {
		dst = beacon.AppendIntField(dst, `,"cell_4g":`, int64(c.Cell4G))
	}
	if c.Cell5G != 0 {
		dst = beacon.AppendIntField(dst, `,"cell_5g":`, int64(c.Cell5G))
	}
	return append(dst, '}')
}

// RestoreMultiWindow rebuilds a window from its serialized state. days
// overrides the span when > 0 (a restart may narrow the window; the
// restored state is pruned to fit). A state that no window could have
// produced — negative or overflowing counts, a source listed twice,
// buckets in a window marked empty or newer than its anchor — is an
// error, never a window whose Records() disagrees with its buckets.
func RestoreMultiWindow(st MultiWindowState, days int) (*MultiWindow, error) {
	if days <= 0 {
		days = st.Days
	}
	m := NewMultiWindow(days)
	for _, ss := range st.Sources {
		if _, dup := m.sources[ss.Collector]; dup {
			return nil, fmt.Errorf("live: restore: source %q listed twice", ss.Collector)
		}
		buckets, records, err := decodeBuckets(ss.Buckets)
		if err != nil {
			return nil, fmt.Errorf("live: restore source %q: %w", ss.Collector, err)
		}
		for day := range buckets {
			if !st.NonEmpty || day > st.Latest {
				return nil, fmt.Errorf("live: restore source %q: day %d outside the window", ss.Collector, day)
			}
		}
		m.sources[ss.Collector] = buckets
		m.records += records
		if m.records < 0 {
			return nil, fmt.Errorf("live: restore: record count overflow")
		}
	}
	if st.NonEmpty {
		m.latest = st.Latest
		m.nonEmpty = true
	}
	m.prune() // the restored span may be narrower than the checkpoint's
	return m, nil
}

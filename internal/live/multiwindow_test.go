package live

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"

	"cellspot/internal/beacon"
	"cellspot/internal/netaddr"
	"cellspot/internal/netinfo"
	"cellspot/internal/obs"
)

// TestWindowStragglersVsPruned pins the retention contract's two drop
// classes apart: a record arriving already older than the window (a
// straggler — an operational signal, something is lagging) must be
// distinguishable from a record aged out by normal retention (business as
// usual).
func TestWindowStragglersVsPruned(t *testing.T) {
	cell := netinfo.ConnCellular.String()
	w := NewMultiWindow(3)
	w.Add(SpoolSource, recAt(100, "10.0.0.1", cell))
	w.Add(SpoolSource, recAt(101, "10.0.1.1", cell))

	// Day 104 prunes days 100 and 101: retention, not stragglers.
	w.Add(SpoolSource, recAt(104, "10.0.4.1", cell))
	if w.Stale() != 2 {
		t.Fatalf("stale after slide = %d, want 2", w.Stale())
	}
	if w.Stragglers() != 0 {
		t.Fatalf("stragglers after slide = %d, want 0: pruned records are not stragglers", w.Stragglers())
	}

	// A day-101 record now arrives too late: that IS a straggler.
	if w.Add(SpoolSource, recAt(101, "10.0.1.2", cell)) {
		t.Fatal("stale record accepted")
	}
	if w.Stragglers() != 1 {
		t.Fatalf("stragglers after late arrival = %d, want 1", w.Stragglers())
	}
	if w.Stale() != 3 {
		t.Fatalf("stale after late arrival = %d, want 3 (stragglers count into stale too)", w.Stale())
	}
}

// TestUpdaterStragglerMetric: a straggler record in the spool must surface
// in live_window_stragglers_total, separately from live_stale_records_total.
func TestUpdaterStragglerMetric(t *testing.T) {
	cell := netinfo.ConnCellular.String()
	dir := t.TempDir()
	recs := []beacon.Record{
		recAt(100, "10.0.0.1", cell),
		recAt(120, "10.0.2.1", cell), // advances the anchor far past day 100
		recAt(101, "10.0.1.1", cell), // straggler: older than 120-7+1
	}
	writeShards(t, dir, 0, recs, 1, false)
	reg := obs.NewRegistry()
	u, err := NewAggregator(Config{
		SpoolDir: dir,
		Inputs:   MapInputs{ASOf: func(netaddr.Block) (uint32, bool) { return 1, true }},
		Store:    mustOpenStore(t),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Tick(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("live_window_stragglers_total", "").Value(); v != 1 {
		t.Fatalf("live_window_stragglers_total = %d, want 1", v)
	}
	if v := reg.Counter("live_stale_records_total", "").Value(); v != 2 {
		t.Fatalf("live_stale_records_total = %d, want 2 (1 pruned + 1 straggler)", v)
	}
}

// offlineWindow is the independent oracle for the window: keep the records
// of the last days days before the newest one, then aggregate them
// directly. It returns the aggregate, its record count and its period.
func offlineWindow(records []beacon.Record, days int) (*beacon.Aggregate, int, string) {
	var maxDay int64
	for i, rec := range records {
		if d := epochDay(rec.Time); i == 0 || d > maxDay {
			maxDay = d
		}
	}
	agg := beacon.NewAggregate()
	n := 0
	for _, rec := range records {
		if epochDay(rec.Time) > maxDay-int64(days) {
			agg.AddRecord(rec)
			n++
		}
	}
	return agg, n, "live:" + formatDay(maxDay-int64(days)+1) + ".." + formatDay(maxDay)
}

// TestMultiWindowMatchesOfflineAggregate: source attribution must never
// perturb the merged aggregate — records split over several sources must
// merge to exactly the offline aggregate of the last seven days, with the
// same period label. This is the invariant behind "federated build ==
// single-collector build".
func TestMultiWindowMatchesOfflineAggregate(t *testing.T) {
	fx := newFixture(t, 30_000)
	multi := NewMultiWindow(DefaultWindowDays)
	sources := []string{"c-a", "c-b", "c-c"}
	for i, rec := range fx.Records {
		multi.Add(sources[i%len(sources)], rec)
	}
	want, n, period := offlineWindow(fx.Records, DefaultWindowDays)
	if multi.Records() != n {
		t.Fatalf("records: offline %d, multi %d", n, multi.Records())
	}
	if multi.Period() != period {
		t.Fatalf("period: offline %q, multi %q", period, multi.Period())
	}
	if !multi.Merged().Equal(want) {
		t.Fatal("merged aggregate diverges from the offline aggregate")
	}
	per := multi.RecordsBySource()
	total := 0
	for _, src := range sources {
		if per[src] == 0 {
			t.Fatalf("source %s has no retained records", src)
		}
		total += per[src]
	}
	if total != multi.Records() {
		t.Fatalf("per-source records sum %d != total %d", total, multi.Records())
	}
}

// TestMultiWindowGlobalAnchor: the window anchors at the newest day across
// ALL sources, so a collector lagging beyond the span sees its records
// straggle even though they are that collector's newest data.
func TestMultiWindowGlobalAnchor(t *testing.T) {
	cell := netinfo.ConnCellular.String()
	m := NewMultiWindow(3)
	m.Add("fresh", recAt(200, "10.0.0.1", cell))
	m.Add("fresh", recAt(210, "10.1.0.1", cell)) // anchor at 210, prunes day 200
	if m.Records() != 1 || m.Stale() != 1 {
		t.Fatalf("records=%d stale=%d, want 1/1", m.Records(), m.Stale())
	}
	// The lagging collector's day-205 record is older than 210-3+1 = 208.
	if m.Add("laggard", recAt(205, "10.2.0.1", cell)) {
		t.Fatal("laggard's stale day accepted")
	}
	if m.Stragglers() != 1 {
		t.Fatalf("stragglers = %d, want 1", m.Stragglers())
	}
	if _, ok := m.RecordsBySource()["laggard"]; ok {
		t.Fatal("laggard retained records it never folded")
	}
	// In-window days from the laggard still fold.
	if !m.Add("laggard", recAt(209, "10.2.1.1", cell)) {
		t.Fatal("laggard's in-window day rejected")
	}
	if m.RecordsBySource()["laggard"] != 1 {
		t.Fatalf("laggard records = %d, want 1", m.RecordsBySource()["laggard"])
	}
}

// TestMultiWindowStateRoundTrip: State → JSON → Restore must reproduce the
// window exactly (merged aggregate, record counts, period), and the
// serialization must be deterministic.
func TestMultiWindowStateRoundTrip(t *testing.T) {
	fx := newFixture(t, 20_000)
	m := NewMultiWindow(DefaultWindowDays)
	sources := []string{"eu-1", "us-1", "ap-1"}
	for i, rec := range fx.Records {
		m.Add(sources[i%len(sources)], rec)
	}
	raw1, err := json.Marshal(m.State())
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := json.Marshal(m.State())
	if err != nil {
		t.Fatal(err)
	}
	if string(raw1) != string(raw2) {
		t.Fatal("state serialization is not deterministic")
	}
	var st MultiWindowState
	if err := json.Unmarshal(raw1, &st); err != nil {
		t.Fatal(err)
	}
	got, err := RestoreMultiWindow(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Records() != m.Records() || got.Period() != m.Period() {
		t.Fatalf("restored records=%d period=%q, want %d/%q",
			got.Records(), got.Period(), m.Records(), m.Period())
	}
	if !got.Merged().Equal(m.Merged()) {
		t.Fatal("restored merged aggregate diverges")
	}
	want := m.RecordsBySource()
	for src, n := range got.RecordsBySource() {
		if want[src] != n {
			t.Fatalf("source %s restored %d records, want %d", src, n, want[src])
		}
	}

	// Restoring into a narrower span prunes to fit.
	narrow, err := RestoreMultiWindow(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Records() >= m.Records() {
		t.Fatalf("narrowed restore kept %d of %d records", narrow.Records(), m.Records())
	}
	if narrow.Days() != 1 {
		t.Fatalf("narrowed days = %d", narrow.Days())
	}
}

// TestRestoreMultiWindowRejectsInconsistentState: a checkpoint no window
// could have written must fail to restore (the aggregator then starts
// empty) instead of yielding a window whose Records() disagrees with its
// buckets.
func TestRestoreMultiWindowRejectsInconsistentState(t *testing.T) {
	block := func(hits, cell int) []DayState {
		return []DayState{{Day: 100, Blocks: []BlockState{{Block: netaddr.FormatIndex(netaddr.V4Block(10, 0, 0)), Hits: hits, API: hits, Cell: cell}}}}
	}
	ok := MultiWindowState{Days: 7, Latest: 100, NonEmpty: true, Sources: []SourceState{{Collector: "a", Buckets: block(3, 1)}}}
	if m, err := RestoreMultiWindow(ok, 0); err != nil || m.Records() != 3 {
		t.Fatalf("consistent state: records=%v err=%v", m, err)
	}
	cases := map[string]MultiWindowState{
		"negative hits": {Days: 7, Latest: 100, NonEmpty: true, Sources: []SourceState{{Collector: "a", Buckets: block(-3, 0)}}},
		"negative cell": {Days: 7, Latest: 100, NonEmpty: true, Sources: []SourceState{{Collector: "a", Buckets: block(3, -1)}}},
		"duplicate source": {Days: 7, Latest: 100, NonEmpty: true, Sources: []SourceState{
			{Collector: "a", Buckets: block(3, 1)}, {Collector: "a", Buckets: block(2, 1)}}},
		"buckets in an empty window":   {Days: 7, Sources: []SourceState{{Collector: "a", Buckets: block(3, 1)}}},
		"bucket newer than the anchor": {Days: 7, Latest: 99, NonEmpty: true, Sources: []SourceState{{Collector: "a", Buckets: block(3, 1)}}},
		"overflowing hits": {Days: 7, Latest: 100, NonEmpty: true, Sources: []SourceState{
			{Collector: "a", Buckets: append(block(math.MaxInt, 0), block(1, 0)...)}}},
	}
	for name, st := range cases {
		if _, err := RestoreMultiWindow(st, 0); err == nil {
			t.Errorf("%s: restored without error", name)
		}
	}
}

// FuzzRestoreMultiWindow: any checkpoint window either fails to restore,
// or restores to a window whose State re-encodes and restores to the
// identical State, with Records() equal to the sum of its hits, and whose
// one-pass encoding is byte for byte json.Marshal(State()).
func FuzzRestoreMultiWindow(f *testing.F) {
	m := NewMultiWindow(3)
	cell := netinfo.ConnCellular.String()
	m.Add("a", recAt(100, "10.0.0.1", cell))
	m.Add("b", recAt(101, "10.0.1.1", ""))
	m.Add("b", recAt(102, "2001:db8::1", cell))
	seed, err := json.Marshal(m.State())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"window_days":7,"latest_day":5,"non_empty":true,"sources":[{"collector":"a","buckets":[{"day":5,"blocks":[{"block":"10.0.0.0/24","hits":-1,"api":0,"cell":0}]}]}]}`))
	f.Add([]byte(`{"window_days":1,"latest_day":9,"non_empty":true,"sources":[{"collector":"a","buckets":[{"day":1,"blocks":null}]},{"collector":"a","buckets":[]}]}`))
	f.Add([]byte(`{"window_days":7,"latest_day":9,"non_empty":true,"sources":[{"collector":"a","buckets":[{"day":9,"blocks":null},{"day":8,"blocks":[]}]}]}`))
	f.Add([]byte(`{"window_days":2,"latest_day":9,"non_empty":true,"sources":[{"collector":"<&>\"","buckets":[{"day":9,"blocks":[{"block":"v6-20010db80000","hits":3,"api":2,"cell":2,"cell_4g":1}]}]}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var st MultiWindowState
		if json.Unmarshal(raw, &st) != nil {
			return
		}
		m, err := RestoreMultiWindow(st, 0)
		if err != nil {
			return
		}
		st1 := m.State()
		hits := 0
		for _, ss := range st1.Sources {
			for _, ds := range ss.Buckets {
				for _, bs := range ds.Blocks {
					hits += bs.Hits
				}
			}
		}
		if m.Records() != hits {
			t.Fatalf("Records() = %d, sum of hits = %d", m.Records(), hits)
		}
		enc, err := json.Marshal(st1)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.appendState(nil); !bytes.Equal(got, enc) {
			t.Fatalf("one-pass encoding differs from json.Marshal(State()):\n got %s\nwant %s", got, enc)
		}
		var back MultiWindowState
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatal(err)
		}
		m2, err := RestoreMultiWindow(back, 0)
		if err != nil {
			t.Fatalf("re-restoring its own State: %v", err)
		}
		if st2 := m2.State(); !reflect.DeepEqual(st1, st2) {
			t.Fatalf("State changed across a round trip:\n%+v\n%+v", st1, st2)
		}
		if m2.Records() != m.Records() {
			t.Fatalf("Records() changed across a round trip: %d, %d", m.Records(), m2.Records())
		}
	})
}

// TestCheckpointEncodingMatchesJSON: the checkpoint a tick writes is byte
// for byte json.Marshal of the checkpoint struct recover decodes — names
// that need escaping, per-RAT counts, nil and empty offset maps, and an
// empty window included.
func TestCheckpointEncodingMatchesJSON(t *testing.T) {
	names := []string{"", "eu-1", `<&>"`, "tab\there", "line\u2028sep", "bad\xffutf8", "ünï", "\x01ctl"}
	rats := []string{"", "3g", "4g", "5g"}
	fx := newFixture(t, 5_000)
	full := NewMultiWindow(DefaultWindowDays)
	for i, rec := range fx.Records {
		rec.RAT = rats[i%len(rats)]
		full.Add(names[i%len(names)], rec)
	}
	acked := map[string]int64{}
	for i, n := range names {
		acked[n+"/0"] = int64(i * 1000)
		acked[n+".jsonl"] = int64(i * 7)
	}
	cases := []struct {
		name  string
		win   *MultiWindow
		acked map[string]int64
	}{
		{"full", full, acked},
		{"nil acked", full, nil},
		{"empty window", NewMultiWindow(3), map[string]int64{}},
	}
	for _, tc := range cases {
		want, err := json.Marshal(checkpoint{Format: stateFormat, Window: tc.win.State(), Acked: tc.acked})
		if err != nil {
			t.Fatal(err)
		}
		a := &Aggregator{win: tc.win}
		if got := a.encodeCheckpoint(tc.acked); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("%s: checkpoint encoding differs from json.Marshal:\n got %s\nwant %s", tc.name, got, want)
		}
	}
}

// TestCheckpointEncodingAcrossTicks: one aggregator encodes a sequence of
// windows that grow and shrink. Every checkpoint is still json.Marshal's
// bytes, and a checkpoint the size of the last one is written into a
// buffer allocated once at the last one's size instead of grown from
// empty.
func TestCheckpointEncodingAcrossTicks(t *testing.T) {
	fx := newFixture(t, 3_000)
	small, full := NewMultiWindow(DefaultWindowDays), NewMultiWindow(DefaultWindowDays)
	for i, rec := range fx.Records {
		if i < 100 {
			small.Add("eu-1", rec)
		}
		full.Add("eu-1", rec)
	}
	acked := map[string]int64{"eu-1/0": 42}
	a := &Aggregator{}
	var last []byte
	for i, win := range []*MultiWindow{small, full, NewMultiWindow(3), full, full} {
		want, err := json.Marshal(checkpoint{Format: stateFormat, Window: win.State(), Acked: acked})
		if err != nil {
			t.Fatal(err)
		}
		a.win = win
		got := a.encodeCheckpoint(acked)
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("tick %d: checkpoint encoding differs from json.Marshal:\n got %s\nwant %s", i, got, want)
		}
		if i == 4 && cap(got) != len(last)+len(last)/8 {
			t.Fatalf("tick %d: checkpoint of %d bytes has capacity %d, want %d (the last checkpoint's size plus slack)", i, len(got), cap(got), len(last)+len(last)/8)
		}
		last = got
	}
}

// Days returns the window span in days.
func (m *MultiWindow) Days() int { return m.days }

// State serializes the window. Straggler/stale tallies are process-local
// observability, not window content, and are not part of the state.
func (m *MultiWindow) State() MultiWindowState {
	st := MultiWindowState{Days: m.days, Latest: m.latest, NonEmpty: m.nonEmpty}
	srcs := make([]string, 0, len(m.sources))
	for src := range m.sources {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	for _, src := range srcs {
		st.Sources = append(st.Sources, SourceState{
			Collector: src,
			Buckets:   encodeBuckets(m.sources[src]),
		})
	}
	return st
}

// encodeBuckets serializes day buckets in ascending day order with sorted
// blocks, so the checkpoint bytes are deterministic for a given state.
func encodeBuckets(buckets map[int64]*dayBucket) []DayState {
	days := make([]int64, 0, len(buckets))
	for day := range buckets {
		days = append(days, day)
	}
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
	out := make([]DayState, 0, len(days))
	for _, day := range days {
		b := buckets[day]
		ds := DayState{Day: day}
		blocks := make([]netaddr.Block, 0, len(b.agg.PerBlock))
		for blk := range b.agg.PerBlock {
			blocks = append(blocks, blk)
		}
		netaddr.SortBlocks(blocks)
		for _, blk := range blocks {
			c := b.agg.PerBlock[blk]
			ds.Blocks = append(ds.Blocks, BlockState{
				Block: netaddr.FormatIndex(blk),
				Hits:  c.Hits, API: c.API, Cell: c.Cell,
				Cell3G: c.Cell3G, Cell4G: c.Cell4G, Cell5G: c.Cell5G,
			})
		}
		out = append(out, ds)
	}
	return out
}

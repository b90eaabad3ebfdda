package live

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cellspot/internal/aschar"
	"cellspot/internal/beacon"
	"cellspot/internal/cellmap"
	"cellspot/internal/faultline"
	"cellspot/internal/history"
	"cellspot/internal/logio"
	"cellspot/internal/mapbuild"
	"cellspot/internal/netaddr"
	"cellspot/internal/netinfo"
	"cellspot/internal/obs"
	"cellspot/internal/pipeline"
	"cellspot/internal/snapshot"
	"cellspot/internal/world"
)

// --- fixtures ---------------------------------------------------------

// testFixture is a small world with pipeline-derived side inputs (demand,
// BGP-style AS mapping, CAIDA-style snapshot rules) and a beacon record
// stream: the full measurement context a live deployment would have.
type testFixture struct {
	World   *world.World
	Inputs  MapInputs
	Records []beacon.Record
}

func newFixture(t testing.TB, totalHits int) *testFixture {
	t.Helper()
	wcfg := world.DefaultConfig()
	wcfg.Scale = 0.0005
	// Noise networks don't scale with the world; trim them so they don't
	// dominate a tiny Internet (same trim as examples/live-collector).
	wcfg.StrayASes, wcfg.IoTASes, wcfg.ProxyASes = 20, 3, 3
	w, err := world.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}

	pcfg := pipeline.DefaultConfig()
	pcfg.World = wcfg
	pcfg.Beacon.TotalHits = 100_000
	pcfg.Beacon.BaseHits = 8
	r, err := pipeline.RunOnWorld(w, pcfg)
	if err != nil {
		t.Fatal(err)
	}

	rules := aschar.DefaultRules(w.Snapshot)
	// The paper's absolute thresholds assume 25M monthly responses; scale
	// them down to the test stream so the filter still bites without
	// wiping out every AS.
	rules.MinHits = 50
	rules.MinCellDU = 0.01

	bcfg := beacon.DefaultGenConfig()
	bcfg.TotalHits = totalHits
	bcfg.BaseHits = 8
	seq, err := beacon.Stream(w, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	var records []beacon.Record
	for rec := range seq {
		records = append(records, rec)
	}

	return &testFixture{
		World: w,
		Inputs: MapInputs{
			Demand:    r.Demand,
			Rules:     rules,
			ASOf:      r.ASOf,
			CountryOf: r.CountryOf,
		},
		Records: records,
	}
}

// writeShards writes records as manually sealed spool shards, nShards of
// roughly equal size, optionally gzipped — the state a beacond spool is in
// after that many rotations.
func writeShards(t testing.TB, dir string, startShard int, records []beacon.Record, nShards int, gzipped bool) {
	t.Helper()
	per := (len(records) + nShards - 1) / nShards
	for s := 0; s < nShards; s++ {
		lo, hi := s*per, min((s+1)*per, len(records))
		if lo >= hi {
			break
		}
		ext := ".jsonl"
		if gzipped {
			ext += ".gz"
		}
		fw, err := logio.Create(filepath.Join(dir, fmt.Sprintf("beacon-%04d%s", startShard+s, ext)))
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range records[lo:hi] {
			if err := fw.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func mustOpenStore(t testing.TB) *snapshot.Store {
	t.Helper()
	s, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// --- window -----------------------------------------------------------

func recAt(day int64, ip string, conn string) beacon.Record {
	return beacon.Record{
		Time: time.Unix(day*secondsPerDay+3600, 0).UTC(),
		IP:   netip.MustParseAddr(ip),
		Conn: conn,
	}
}

func TestWindowSlidesAndPrunes(t *testing.T) {
	cell := netinfo.ConnCellular.String()
	w := NewMultiWindow(3)
	w.Add(SpoolSource, recAt(100, "10.0.0.1", cell))
	w.Add(SpoolSource, recAt(101, "10.0.1.1", cell))
	w.Add(SpoolSource, recAt(102, "10.0.2.1", cell))
	if w.Records() != 3 {
		t.Fatalf("records = %d, want 3", w.Records())
	}
	if got := w.Period(); got != "live:1970-04-11..1970-04-13" {
		t.Fatalf("period = %q", got)
	}
	// Day 104 evicts days 100 and 101.
	w.Add(SpoolSource, recAt(104, "10.0.4.1", cell))
	if w.Records() != 2 || w.Stale() != 2 {
		t.Fatalf("after slide: records=%d stale=%d, want 2/2", w.Records(), w.Stale())
	}
	// A record older than the window is dropped on arrival.
	if w.Add(SpoolSource, recAt(101, "10.0.1.2", cell)) {
		t.Fatal("stale record accepted")
	}
	agg := w.Merged()
	if agg.Blocks() != 2 {
		t.Fatalf("merged blocks = %d, want 2", agg.Blocks())
	}
	if c, ok := agg.Get(netaddr.V4Block(10, 0, 2)); !ok || c.Hits != 1 || c.Cell != 1 {
		t.Fatalf("day-102 block counts = %+v", c)
	}
	if _, ok := agg.Get(netaddr.V4Block(10, 0, 0)); ok {
		t.Fatal("evicted day's block survived into Merged")
	}
}

// TestWindowOrderIndependence: the merged aggregate over the final window
// must not depend on record arrival order.
func TestWindowOrderIndependence(t *testing.T) {
	cell := netinfo.ConnCellular.String()
	records := []beacon.Record{
		recAt(200, "10.1.0.1", cell), // will fall out of the window
		recAt(205, "10.1.5.1", cell),
		recAt(203, "10.1.3.1", ""),
		recAt(207, "10.1.7.1", cell),
		recAt(201, "10.1.1.1", cell), // stale on some orders, pruned on others
		recAt(206, "10.1.6.1", cell),
	}
	perms := [][]int{{0, 1, 2, 3, 4, 5}, {3, 4, 5, 0, 1, 2}, {5, 4, 3, 2, 1, 0}, {2, 0, 3, 1, 5, 4}}
	var want map[netaddr.Block]beacon.Counts
	for pi, perm := range perms {
		w := NewMultiWindow(3)
		for _, i := range perm {
			w.Add(SpoolSource, records[i])
		}
		got := make(map[netaddr.Block]beacon.Counts)
		merged := w.Merged()
		for i := range merged.Blocks() {
			b, c := merged.At(i)
			got[b] = c
		}
		if pi == 0 {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("perm %d: %d blocks, want %d", pi, len(got), len(want))
		}
		for b, c := range want {
			if got[b] != c {
				t.Fatalf("perm %d: block %v = %+v, want %+v", pi, b, got[b], c)
			}
		}
	}
}

// --- aggregator fed by the local spool ----------------------------------------------------------

// TestLiveOfflineEquivalence replays a spool through the live path (spool
// reader → window → BuildMap via a full Aggregator publish) and rebuilds offline from
// the same records over the same window; the two maps must serialize to
// identical bytes. Covers plain and gzip spools.
func TestLiveOfflineEquivalence(t *testing.T) {
	fx := newFixture(t, 60_000)
	for _, gzipped := range []bool{false, true} {
		name := "plain"
		if gzipped {
			name = "gzip"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeShards(t, dir, 0, fx.Records, 6, gzipped)
			store := mustOpenStore(t)
			u, err := NewAggregator(Config{
				SpoolDir: dir,
				Inputs:   fx.Inputs,
				Store:    store,
				Metrics:  obs.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := u.Tick()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Published {
				t.Fatal("tick over a full spool did not publish")
			}
			if res.NewRecords != len(fx.Records) {
				t.Fatalf("consumed %d records, want %d", res.NewRecords, len(fx.Records))
			}
			liveBytes, err := os.ReadFile(res.Generation.Path(history.MapFile))
			if err != nil {
				t.Fatal(err)
			}

			// Offline rebuild over the same window: records of the final
			// 7 days, aggregated directly.
			var maxDay int64
			for _, rec := range fx.Records {
				if d := epochDay(rec.Time); d > maxDay {
					maxDay = d
				}
			}
			agg := beacon.NewAggregate()
			inWindow := 0
			for _, rec := range fx.Records {
				if epochDay(rec.Time) > maxDay-DefaultWindowDays {
					agg.AddRecord(rec)
					inWindow++
				}
			}
			if res.WindowRecords != inWindow {
				t.Fatalf("window has %d records, offline window has %d", res.WindowRecords, inWindow)
			}
			day := func(d int64) string {
				return time.Unix(d*secondsPerDay, 0).UTC().Format("2006-01-02")
			}
			period := fmt.Sprintf("live:%s..%s", day(maxDay-DefaultWindowDays+1), day(maxDay))
			m, err := mapbuild.Build(agg, u.cfg.Threshold, period, fx.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			if m.Len() == 0 {
				t.Fatal("offline map is empty; the equivalence is vacuous")
			}
			var buf bytes.Buffer
			if err := m.Write(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(liveBytes, buf.Bytes()) {
				t.Fatalf("live map (%d bytes) differs from offline build (%d bytes)",
					len(liveBytes), buf.Len())
			}
		})
	}
}

// TestCheckpointRecovery restarts the aggregator mid-stream: the recovered
// aggregator must consume only the new shard and publish the same map a
// scratch aggregator over the whole spool does.
func TestCheckpointRecovery(t *testing.T) {
	fx := newFixture(t, 40_000)
	half := len(fx.Records) / 2
	dir := t.TempDir()
	store := mustOpenStore(t)

	writeShards(t, dir, 0, fx.Records[:half], 2, false)
	u1, err := NewAggregator(Config{SpoolDir: dir, Inputs: fx.Inputs, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := u1.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Published || res1.NewRecords != half {
		t.Fatalf("first tick: %+v", res1)
	}

	// The collector rotates on; the aggregator process restarts.
	writeShards(t, dir, 2, fx.Records[half:], 2, false)
	u2, err := NewAggregator(Config{SpoolDir: dir, Inputs: fx.Inputs, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := u2.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Published {
		t.Fatal("post-recovery tick did not publish")
	}
	if res2.Generation.Seq != res1.Generation.Seq+1 {
		t.Fatalf("generation %d, want %d", res2.Generation.Seq, res1.Generation.Seq+1)
	}
	if res2.NewRecords != len(fx.Records)-half {
		t.Fatalf("recovered aggregator consumed %d records, want only the %d new ones (no spool re-read)",
			res2.NewRecords, len(fx.Records)-half)
	}

	// A scratch aggregator over the full spool must produce identical bytes.
	scratchDir := t.TempDir()
	writeShards(t, scratchDir, 0, fx.Records, 4, false)
	scratchStore := mustOpenStore(t)
	u3, err := NewAggregator(Config{SpoolDir: scratchDir, Inputs: fx.Inputs, Store: scratchStore})
	if err != nil {
		t.Fatal(err)
	}
	res3, err := u3.Tick()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(res2.Generation.Path(history.MapFile))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(res3.Generation.Path(history.MapFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered aggregator's map differs from a from-scratch build")
	}
}

// TestIdleTickDoesNotRepublish: no new records → no new generation.
func TestIdleTickDoesNotRepublish(t *testing.T) {
	fx := newFixture(t, 20_000)
	dir := t.TempDir()
	writeShards(t, dir, 0, fx.Records, 2, false)
	store := mustOpenStore(t)
	u, err := NewAggregator(Config{SpoolDir: dir, Inputs: fx.Inputs, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := u.Tick()
	if err != nil || !res1.Published {
		t.Fatalf("first tick: %+v err=%v", res1, err)
	}
	res2, err := u.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Published {
		t.Fatal("idle tick republished")
	}
	cur, ok, err := store.Current()
	if err != nil || !ok || cur.Seq != res1.Generation.Seq {
		t.Fatalf("current generation moved: %+v ok=%v err=%v", cur, ok, err)
	}
}

// TestFirstTickOnEmptySpoolPublishesEmptyGeneration: a serving stack needs
// a generation to load even before the first beacon arrives.
func TestFirstTickOnEmptySpoolPublishesEmptyGeneration(t *testing.T) {
	store := mustOpenStore(t)
	u, err := NewAggregator(Config{
		SpoolDir: t.TempDir(),
		Inputs:   MapInputs{ASOf: func(netaddr.Block) (uint32, bool) { return 0, false }},
		Store:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Published || res.Entries != 0 {
		t.Fatalf("bootstrap tick: %+v", res)
	}
	m, err := ReadGenerationMap(res.Generation)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 || m.Period != "live:empty" {
		t.Fatalf("bootstrap map: len=%d period=%q", m.Len(), m.Period)
	}
}

// TestTickSidecarMatchesMap: a ticked generation's meta.json carries the
// threshold of its cellmap.jsonl header and the window's day range.
func TestTickSidecarMatchesMap(t *testing.T) {
	cell := netinfo.ConnCellular.String()
	spool := t.TempDir()
	writeShards(t, spool, 0, []beacon.Record{
		recAt(100, "10.0.0.1", cell),
		recAt(102, "10.0.0.2", cell),
		recAt(103, "10.0.1.1", "wifi"),
	}, 1, false)
	u, err := NewAggregator(Config{
		SpoolDir:  spool,
		Threshold: 0.7,
		Inputs:    MapInputs{ASOf: func(netaddr.Block) (uint32, bool) { return 64496, true }},
		Store:     mustOpenStore(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Published {
		t.Fatal("tick did not publish")
	}
	raw, err := os.ReadFile(res.Generation.Path(history.MetaFile))
	if err != nil {
		t.Fatal(err)
	}
	var meta history.GenMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	st, err := cellmap.ReadStats(res.Generation.Path(history.MapFile))
	if err != nil {
		t.Fatal(err)
	}
	if st.Threshold != 0.7 || meta.Threshold != st.Threshold {
		t.Errorf("sidecar threshold %g, map header threshold %g, want both 0.7", meta.Threshold, st.Threshold)
	}
	if meta.Entries != st.Entries || meta.Period != st.Period {
		t.Errorf("sidecar %d entries, period %q; map header %d, %q", meta.Entries, meta.Period, st.Entries, st.Period)
	}
	first, last, ok := u.win.DayRange()
	if !ok || meta.DayFirst != first || meta.DayLast != last {
		t.Errorf("sidecar days %q..%q, window DayRange %q..%q (ok %v)", meta.DayFirst, meta.DayLast, first, last, ok)
	}
}

// TestBuildMapAppliesASFilter: detected blocks in an AS that fails the
// filter rules must not be published.
func TestBuildMapAppliesASFilter(t *testing.T) {
	agg := beacon.NewAggregate()
	big := netaddr.V4Block(10, 0, 0)
	small := netaddr.V4Block(10, 1, 0)
	agg.Add(big, 200, 200, 200) // AS 100: plenty of hits, fully cellular
	agg.Add(small, 20, 20, 20)  // AS 200: cellular but under MinHits
	asOf := func(b netaddr.Block) (uint32, bool) {
		if b == big {
			return 100, true
		}
		return 200, true
	}
	m, err := mapbuild.Build(agg, 0.5, "test", mapbuild.Inputs{
		Rules: aschar.Rules{MinHits: 100},
		ASOf:  asOf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatalf("map has %d entries, want 1", m.Len())
	}
	if e := m.Entries()[0]; e.ASN != 100 {
		t.Fatalf("surviving entry ASN = %d, want 100", e.ASN)
	}
	if _, ok := m.Lookup(netip.MustParseAddr("10.1.0.5")); ok {
		t.Fatal("filtered AS's block is still published")
	}
}

// TestUpdaterMetrics: one tick populates the live_* families.
func TestUpdaterMetrics(t *testing.T) {
	fx := newFixture(t, 20_000)
	dir := t.TempDir()
	writeShards(t, dir, 0, fx.Records, 2, false)
	reg := obs.NewRegistry()
	store := mustOpenStore(t)
	u, err := NewAggregator(Config{SpoolDir: dir, Inputs: fx.Inputs, Store: store, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("live_tailed_records_total", "").Value(); v != uint64(len(fx.Records)) {
		t.Fatalf("live_tailed_records_total = %d, want %d", v, len(fx.Records))
	}
	if v := reg.Gauge("live_window_records", "").Value(); v != int64(res.WindowRecords) {
		t.Fatalf("live_window_records = %d, want %d", v, res.WindowRecords)
	}
	if v := reg.Counter("live_publish_total", "").Value(); v != 1 {
		t.Fatalf("live_publish_total = %d, want 1", v)
	}
	if v := reg.Counter("live_refresh_total", "").Value(); v != 1 {
		t.Fatalf("live_refresh_total = %d, want 1", v)
	}
	stale := reg.Counter("live_stale_records_total", "").Value()
	if int(stale)+res.WindowRecords != len(fx.Records) {
		t.Fatalf("stale (%d) + window (%d) != tailed (%d)", stale, res.WindowRecords, len(fx.Records))
	}
	if h := reg.Histogram("live_refresh_seconds", "", nil); h.Count() != 1 {
		t.Fatalf("live_refresh_seconds count = %d, want 1", h.Count())
	}
	for _, stage := range []string{"merge", "build", "checkpoint", "publish"} {
		if h := reg.Histogram("live_refresh_stage_seconds", "", nil, obs.L("stage", stage)); h.Count() != 1 {
			t.Fatalf("live_refresh_stage_seconds{stage=%q} count = %d, want 1", stage, h.Count())
		}
	}
}

// failRenames fails every rename while on: a generation can be staged but
// never goes live.
type failRenames struct{ on atomic.Bool }

func (f *failRenames) Decide(op faultline.Op) faultline.Decision {
	if f.on.Load() && op.Kind == "rename" {
		return faultline.Decision{Err: faultline.ErrInjected}
	}
	return faultline.Decision{}
}

// TestWindowBlocksGaugeTracksPublishedWindow: live_window_blocks describes
// the last published window, so a tick whose publish fails leaves it at
// the previous generation's value.
func TestWindowBlocksGaugeTracksPublishedWindow(t *testing.T) {
	dir := t.TempDir()
	inj := &failRenames{}
	store, err := snapshot.OpenFS(dir, faultline.NewFaultFS(faultline.OS(), inj, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	a, err := NewAggregator(Config{
		Inputs:  MapInputs{ASOf: func(netaddr.Block) (uint32, bool) { return 1, true }},
		Store:   store,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	fold := func(offset int64, ips ...string) {
		a.Fold(func(f Folder) {
			for _, ip := range ips {
				f.Add("c1", recAt(100, ip, netinfo.ConnCellular.String()))
			}
			f.Commit("c1/0", offset)
		})
	}
	gauge := reg.Gauge("live_window_blocks", "")

	fold(1, "10.0.0.1", "10.0.1.1")
	if _, err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if v := gauge.Value(); v != 2 {
		t.Fatalf("live_window_blocks = %d after the first publish, want 2", v)
	}

	fold(2, "10.0.2.1", "10.0.3.1", "10.0.4.1")
	inj.on.Store(true)
	if _, err := a.Tick(); !errors.Is(err, faultline.ErrInjected) {
		t.Fatalf("tick with failing renames: err = %v, want an injected fault", err)
	}
	if v := gauge.Value(); v != 2 {
		t.Fatalf("live_window_blocks = %d after a failed publish, want the published 2", v)
	}

	inj.on.Store(false)
	res, err := a.Tick()
	if err != nil || !res.Published {
		t.Fatalf("retry: published=%v err=%v", res.Published, err)
	}
	if v := gauge.Value(); v != 5 {
		t.Fatalf("live_window_blocks = %d after the retry, want 5", v)
	}
}

// TestPreAggregatorStoreReReadsSpool: a store whose current generation's
// checkpoint the spool reader cannot resume from starts empty and re-reads
// the spool once, publishing the same map a scratch build does. Two
// legacy stores: one last written before the aggregator (no StateFile,
// the old checkpoint.json), and one written by the former spool tailer,
// whose StateFile kept file positions in a "spool" object and no acked
// offsets — restoring its window with zero offsets would fold every record
// twice.
func TestPreAggregatorStoreReReadsSpool(t *testing.T) {
	cell := netinfo.ConnCellular.String()
	var recs []beacon.Record
	for i := 0; i < 40; i++ {
		recs = append(recs, recAt(int64(200+i%5), fmt.Sprintf("10.0.%d.1", i%8), cell))
	}
	dir := t.TempDir()
	writeShards(t, dir, 0, recs, 2, false)
	inputs := MapInputs{ASOf: func(netaddr.Block) (uint32, bool) { return 1, true }}
	build := func(store *snapshot.Store) Refresh {
		t.Helper()
		a, err := NewAggregator(Config{SpoolDir: dir, Inputs: inputs, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Tick()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	scratch := build(mustOpenStore(t))
	want, err := os.ReadFile(scratch.Generation.Path(history.MapFile))
	if err != nil {
		t.Fatal(err)
	}
	if scratch.Entries == 0 {
		t.Fatal("published map is empty; the comparison below would be vacuous")
	}

	tailed := NewMultiWindow(DefaultWindowDays)
	for _, rec := range recs {
		tailed.Add(SpoolSource, rec)
	}
	window, err := json.Marshal(tailed.State())
	if err != nil {
		t.Fatal(err)
	}
	var spool []string
	for _, shard := range []string{"beacon-0000.jsonl", "beacon-0001.jsonl"} {
		fi, err := os.Stat(filepath.Join(dir, shard))
		if err != nil {
			t.Fatal(err)
		}
		spool = append(spool, fmt.Sprintf(`%q:{"bytes":%d,"lines":20,"size":%d}`, shard, fi.Size(), fi.Size()))
	}
	legacy := []struct{ name, file, content string }{
		{"pre-aggregator", "checkpoint.json",
			`{"format":"cellspot-live-checkpoint/1","window_days":7,"latest_day":204,"buckets":[],"files":{"beacon-0000.jsonl":{"bytes":999999,"lines":20,"size":999999}}}`},
		{"spool tailer", StateFile,
			`{"format":"` + stateFormat + `","window":` + string(window) + `,"acked":{},"spool":{` + strings.Join(spool, ",") + `}}` + "\n"},
	}
	for _, ck := range legacy {
		t.Run(ck.name, func(t *testing.T) {
			store := mustOpenStore(t)
			if _, err := store.Publish(func(gen string) error {
				if err := os.WriteFile(filepath.Join(gen, history.MapFile), nil, 0o644); err != nil {
					return err
				}
				return os.WriteFile(filepath.Join(gen, ck.file), []byte(ck.content), 0o644)
			}); err != nil {
				t.Fatal(err)
			}
			res := build(store)
			if !res.Published || res.NewRecords != len(recs) || res.WindowRecords != len(recs) {
				t.Fatalf("first tick over a legacy store: %+v, want all %d records read once", res, len(recs))
			}
			got, err := os.ReadFile(res.Generation.Path(history.MapFile))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("map after the upgrade differs from a from-scratch build")
			}
		})
	}
}

// TestNegativeAckedOffsetStartsEmpty: a checkpoint whose acked offsets
// include a negative one is unusable. The aggregator starts empty and
// reads the whole spool once, instead of failing every tick on that
// shard and never folding its records.
func TestNegativeAckedOffsetStartsEmpty(t *testing.T) {
	recs := spoolRecords(0, 40)
	dir := t.TempDir()
	writeShards(t, dir, 0, recs, 2, false)
	window, err := json.Marshal(NewMultiWindow(DefaultWindowDays).State())
	if err != nil {
		t.Fatal(err)
	}
	store := mustOpenStore(t)
	if _, err := store.Publish(func(gen string) error {
		if err := os.WriteFile(filepath.Join(gen, history.MapFile), nil, 0o644); err != nil {
			return err
		}
		ck := `{"format":"` + stateFormat + `","window":` + string(window) + `,"acked":{"beacon-0000.jsonl":-5}}` + "\n"
		return os.WriteFile(filepath.Join(gen, StateFile), []byte(ck), 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	a, err := NewAggregator(Config{
		SpoolDir: dir,
		Inputs:   MapInputs{ASOf: func(netaddr.Block) (uint32, bool) { return 1, true }},
		Store:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Status().Acked; len(got) != 0 {
		t.Fatalf("acked offsets %v restored from a checkpoint with a negative one", got)
	}
	res, err := a.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Published || res.NewRecords != len(recs) {
		t.Fatalf("first tick: %+v, want all %d records folded", res, len(recs))
	}
}

// FuzzRecoverCheckpoint: any StateFile bytes either are refused, or
// restore a window plus input offsets that are all at least zero and
// whose keys belong to the reading input mode. An accepted checkpoint,
// written again as a tick writes it, decodes to the same window and
// offsets.
func FuzzRecoverCheckpoint(f *testing.F) {
	dir := f.TempDir()
	writeShards(f, dir, 0, spoolRecords(0, 30), 2, false)
	store, err := snapshot.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	a, err := NewAggregator(Config{
		SpoolDir: dir,
		Inputs:   MapInputs{ASOf: func(netaddr.Block) (uint32, bool) { return 1, true }},
		Store:    store,
	})
	if err != nil {
		f.Fatal(err)
	}
	res, err := a.Tick()
	if err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(res.Generation.Path(StateFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	empty := `{"format":"` + stateFormat + `","window":{"window_days":7,"latest_day":0,"non_empty":false,"sources":null},`
	f.Add([]byte(empty + `"acked":{"beacon-0000.jsonl":-5}}`))
	f.Add([]byte(empty + `"acked":{"eu-1/beacon-0000.jsonl":12}}`))
	f.Add([]byte(empty + `"acked":null}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, local := range []bool{true, false} {
			win, acked, err := decodeCheckpoint(raw, 0, local)
			if err != nil {
				continue
			}
			for key, off := range acked {
				if off < 0 {
					t.Fatalf("accepted negative offset %q: %d", key, off)
				}
				if strings.Contains(key, "/") == local {
					t.Fatalf("accepted key %q of the other input mode (local %v)", key, local)
				}
			}
			again := (&Aggregator{win: win}).encodeCheckpoint(acked)
			win2, acked2, err := decodeCheckpoint(again, 0, local)
			if err != nil {
				t.Fatalf("re-decoding an accepted checkpoint: %v\n%s", err, again)
			}
			if !reflect.DeepEqual(win2.State(), win.State()) || !maps.Equal(acked2, acked) {
				t.Fatalf("checkpoint changed across a round trip:\n%s", again)
			}
		}
	})
}

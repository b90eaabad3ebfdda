package history

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cellspot/internal/cellmap"
	"cellspot/internal/obs"
	"cellspot/internal/snapshot"
)

// hEntry is a test map entry; rat is optional (nil = legacy line).
type hEntry struct {
	prefix  string
	asn     uint32
	ratio   float64
	du      float64
	country string
	rat     []float64
}

func mapJSONL(t testing.TB, period string, entries []hEntry) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, `{"format":"cellspot-map/1","threshold":0.5,"period":%q,"entries":%d}`+"\n",
		period, len(entries))
	for _, e := range entries {
		if e.rat != nil {
			raw, err := json.Marshal(e.rat)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, `{"prefix":%q,"asn":%d,"ratio":%g,"du":%g,"country":%q,"rat":%s}`+"\n",
				e.prefix, e.asn, e.ratio, e.du, e.country, raw)
		} else {
			fmt.Fprintf(&b, `{"prefix":%q,"asn":%d,"ratio":%g,"du":%g,"country":%q}`+"\n",
				e.prefix, e.asn, e.ratio, e.du, e.country)
		}
	}
	return b.String()
}

func mkMap(t testing.TB, period string, entries []hEntry) *cellmap.Map {
	t.Helper()
	m, err := cellmap.Read(strings.NewReader(mapJSONL(t, period, entries)))
	if err != nil {
		t.Fatalf("mkMap: %v", err)
	}
	return m
}

// publishGen publishes one map (with a meta sidecar unless noMeta) and
// returns its seq.
func publishGen(t testing.TB, store *snapshot.Store, period string, entries []hEntry, noMeta bool) uint64 {
	t.Helper()
	gen, err := store.Publish(func(dir string) error {
		if err := os.WriteFile(filepath.Join(dir, MapFile),
			[]byte(mapJSONL(t, period, entries)), 0o644); err != nil {
			return err
		}
		if noMeta {
			return nil
		}
		return writeMeta(dir, GenMeta{
			BuiltUnix: 1480000000,
			Entries:   len(entries),
			Period:    period,
			Threshold: 0.5,
			DayFirst:  "2016-12-01",
			DayLast:   "2016-12-31",
			RAT:       len(entries) > 0 && entries[0].rat != nil,
		})
	})
	if err != nil {
		t.Fatalf("publish %s: %v", period, err)
	}
	return gen.Seq
}

func baseEntries() []hEntry {
	return []hEntry{
		{prefix: "10.0.0.0/24", asn: 100, ratio: 0.6, du: 3, country: "DE"},
		{prefix: "2001:db8::/48", asn: 200, ratio: 0.7, du: 1, country: "SE"},
	}
}

func TestIndexBootMetadata(t *testing.T) {
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	publishGen(t, store, "2016-10", baseEntries(), true) // legacy: no sidecar
	publishGen(t, store, "2016-11", baseEntries(), false)
	ix, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	gens := ix.Generations()
	if len(gens) != 2 {
		t.Fatalf("Generations() = %d entries, want 2", len(gens))
	}
	// The legacy generation's metadata comes from the map header fallback:
	// period/threshold/entries recovered, build time from the dir mtime.
	g1 := gens[0]
	if g1.Seq != 1 || g1.Meta.Period != "2016-10" || g1.Meta.Entries != 2 || g1.Meta.Threshold != 0.5 {
		t.Errorf("fallback meta = %+v", g1)
	}
	if g1.Meta.BuiltUnix == 0 {
		t.Error("fallback meta has no build time")
	}
	// The sidecar generation carries its full sidecar verbatim.
	g2 := gens[1]
	if g2.Seq != 2 || g2.Meta.BuiltUnix != 1480000000 || g2.Meta.DayFirst != "2016-12-01" || g2.Meta.DayLast != "2016-12-31" {
		t.Errorf("sidecar meta = %+v", g2)
	}
}

func TestAtLoadsEvictsAndReloads(t *testing.T) {
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		es := baseEntries()
		es[0].ratio = 0.1 * float64(i+1) // distinguishable per generation
		publishGen(t, store, fmt.Sprintf("2016-%02d", i+1), es, false)
	}
	reg := obs.NewRegistry()
	ix, err := New(Config{Store: store, MaxResident: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Touch every generation; with MaxResident 2 the LRU must evict.
	for seq := uint64(1); seq <= 5; seq++ {
		m, err := ix.At(seq)
		if err != nil {
			t.Fatalf("At(%d): %v", seq, err)
		}
		if want := fmt.Sprintf("2016-%02d", seq); m.Period != want {
			t.Errorf("At(%d).Period = %q, want %q", seq, m.Period, want)
		}
	}
	if got := ix.mEvictions.Value(); got != 3 {
		t.Errorf("evictions = %d, want 3", got)
	}
	if got := ix.mResident.Value(); got != 2 {
		t.Errorf("resident gauge = %d, want 2", got)
	}
	// An evicted generation reloads transparently with the same content.
	m1, err := ix.At(1)
	if err != nil {
		t.Fatalf("reload At(1): %v", err)
	}
	if m1.Period != "2016-01" || m1.Entries()[0].Ratio != 0.1 {
		t.Errorf("reloaded gen 1 = period %q ratio %g", m1.Period, m1.Entries()[0].Ratio)
	}
	if got := ix.mLoads.Value(); got != 6 {
		t.Errorf("loads = %d, want 6 (5 + 1 reload)", got)
	}
}

func TestAtPrunedSeq(t *testing.T) {
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		publishGen(t, store, fmt.Sprintf("m%d", i+1), baseEntries(), false)
	}
	ix, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Prune(2); err != nil { // gens 1,2 removed
		t.Fatal(err)
	}
	_, err = ix.At(1)
	var perr *cellmap.PrunedError
	if !errors.As(err, &perr) {
		t.Fatalf("At(pruned) error = %v, want *cellmap.PrunedError", err)
	}
	if perr.Seq != 1 || perr.Oldest != 3 {
		t.Errorf("PrunedError = %+v, want Seq 1 Oldest 3", perr)
	}
	// A never-published seq gets the same shape.
	if _, err := ix.At(99); !errors.As(err, &perr) || perr.Seq != 99 || perr.Oldest != 3 {
		t.Errorf("At(99) = %v", err)
	}
	// The refresh that backed the 404 also dropped the pruned metadata.
	if gens := ix.Generations(); len(gens) != 2 || gens[0].Seq != 3 {
		t.Errorf("post-prune Generations() = %+v", gens)
	}
}

// TestAtSeesNewPublishWithoutExplicitRefresh: a gen published after boot
// is found by the single rescan inside At, so lookups racing the store
// poller do not 404 spuriously.
func TestAtSeesNewPublish(t *testing.T) {
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	publishGen(t, store, "m1", baseEntries(), false)
	ix, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	publishGen(t, store, "m2", baseEntries(), false)
	m, err := ix.At(2)
	if err != nil {
		t.Fatalf("At(new publish): %v", err)
	}
	if m.Period != "m2" {
		t.Errorf("Period = %q", m.Period)
	}
}

func TestTimelineChangePoints(t *testing.T) {
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// gen 1: address not cellular. gen 2: becomes cellular (legacy map,
	// no RAT). gen 3: same label state, ratio drifts (no change-point).
	// gen 4: ASN changes and the RAT column appears. gen 5: unchanged.
	other := []hEntry{{prefix: "192.0.2.0/24", asn: 7, ratio: 0.5, du: 1, country: "US"}}
	publishGen(t, store, "m1", other, false)
	cell := func(asn uint32, ratio float64, rat []float64) []hEntry {
		return append([]hEntry{{prefix: "10.0.0.0/24", asn: asn, ratio: ratio, du: 2, country: "DE", rat: rat}}, other...)
	}
	publishGen(t, store, "m2", cell(100, 0.6, nil), true)
	publishGen(t, store, "m3", cell(100, 0.8, nil), false)
	publishGen(t, store, "m4", cell(101, 0.8, []float64{0.1, 0.6, 0.3}), false)
	publishGen(t, store, "m5", cell(101, 0.8, []float64{0.1, 0.5, 0.4}), false)

	ix, err := New(Config{Store: store, MaxResident: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr := "10.0.0.9"
	resp, err := ix.Timeline(mustAddr(t, addr), addr)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Addr != addr || resp.OldestGen != 1 || resp.NewestGen != 5 || resp.Examined != 5 {
		t.Errorf("timeline envelope = %+v", resp)
	}
	if len(resp.Changes) != 3 {
		t.Fatalf("change-points = %+v, want 3", resp.Changes)
	}
	c := resp.Changes
	if c[0].Generation != 1 || c[0].Cellular {
		t.Errorf("first point = %+v, want non-cellular @1", c[0])
	}
	if c[1].Generation != 2 || !c[1].Cellular || c[1].ASN != 100 || c[1].Ratio != 0.6 || c[1].RAT != nil {
		t.Errorf("became-cellular point = %+v", c[1])
	}
	if c[2].Generation != 4 || c[2].ASN != 101 || len(c[2].RAT) != 3 || c[2].RAT[2] != 0.3 {
		t.Errorf("ASN-change point = %+v", c[2])
	}

	// An address that never changes state yields exactly one point.
	resp2, err := ix.Timeline(mustAddr(t, "192.0.2.5"), "192.0.2.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Changes) != 1 || !resp2.Changes[0].Cellular || resp2.Changes[0].ASN != 7 {
		t.Errorf("stable timeline = %+v", resp2.Changes)
	}
}

func TestRefreshDropsResidentOfPrunedGen(t *testing.T) {
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		publishGen(t, store, fmt.Sprintf("m%d", i+1), baseEntries(), false)
	}
	ix, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.At(1); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Prune(1); err != nil {
		t.Fatal(err)
	}
	if err := ix.Refresh(); err != nil {
		t.Fatal(err)
	}
	ix.mu.Lock()
	_, stillResident := ix.resident[1]
	ix.mu.Unlock()
	if stillResident {
		t.Error("pruned generation still resident after Refresh")
	}
	if gens := ix.Generations(); len(gens) != 1 || gens[0].Seq != 3 {
		t.Errorf("Generations() = %+v", gens)
	}
}

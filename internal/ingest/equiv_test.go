package ingest

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"maps"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/classify"
	"cellspot/internal/demand"
	"cellspot/internal/history"
	"cellspot/internal/live"
	"cellspot/internal/mapbuild"
	"cellspot/internal/netaddr"
	"cellspot/internal/obs"
	"cellspot/internal/snapshot"
)

// equivEntries builds a deterministic mixed workload: IPv4 and IPv6
// clients across several /24s and /48s, cellular/wifi/no-API labels,
// nanosecond-precision timestamps spanning multiple days, and non-trivial
// byte counts shaping DEMAND.
func equivEntries() []Entry {
	base := time.Unix(1482624000, 0).UTC() // 2016-12-25, the paper's window
	var out []Entry
	for i := 0; i < 120; i++ {
		var ip string
		switch i % 4 {
		case 0:
			ip = fmt.Sprintf("10.20.%d.%d", i%6, 10+i)
		case 1:
			ip = fmt.Sprintf("198.51.%d.%d", 100+i%3, 1+i)
		case 2:
			ip = fmt.Sprintf("2001:db8:%d::%d", i%5, 1+i)
		default:
			ip = fmt.Sprintf("100.64.%d.%d", i%4, 1+i)
		}
		conn := ""
		switch i % 3 {
		case 0:
			conn = "cellular"
		case 1:
			conn = "wifi"
		}
		rec := beacon.Record{
			Time:       base.Add(time.Duration(i)*7000*time.Second + time.Duration(i*123456789%1_000_000_000)),
			IP:         netip.MustParseAddr(ip),
			Conn:       conn,
			Browser:    []string{"chrome-mobile", "safari-mobile", "firefox"}[i%3],
			PageLoadMS: 500 + i*13,
		}
		e := FromRecord(rec)
		e.UID = fmt.Sprintf("Cequiv%04d", i)
		e.OrigBytes = int64(100 + i*37%5000)
		e.RespBytes = int64(i * 911 % 20000)
		out = append(out, e)
	}
	return out
}

// writeEquivTree lays the entries out across the three supported formats
// in a multi-sensor tree, in discovery order (default, sensor-a, sensor-b):
// plain TSV at the root, gzipped TSV under sensor-a, JSONL under sensor-b.
// With malformed true, junk lines are spliced into the plain TSV.
func writeEquivTree(t *testing.T, entries []Entry, malformed bool) string {
	t.Helper()
	root := t.TempDir()

	var tsv bytes.Buffer
	w := NewTSVWriter(&tsv)
	for i := range entries[:40] {
		if err := w.Write(&entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	body := tsv.String()
	if malformed {
		junk := "this line has no tabs at all\n" +
			"1482624001.5\tCbad\tnot-an-ip-at-all\n" + // wrong column count
			"#close\n"
		body = strings.Replace(body, "#close\n", junk, 1)
	}
	if err := os.WriteFile(filepath.Join(root, "conn.log"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}

	var gzTSV bytes.Buffer
	gz := gzip.NewWriter(&gzTSV)
	gw := NewTSVWriter(gz)
	for i := range entries[40:80] {
		if err := gw.Write(&entries[40+i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "sensor-a"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "sensor-a", "conn.2016-12-25.log.gz"), gzTSV.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var jsonl bytes.Buffer
	if err := WriteJSONL(&jsonl, entries[80:]); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "sensor-b"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "sensor-b", "conn.jsonl"), jsonl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// directAggregate is the oracle: the same entries injected in memory, in
// the same deterministic order the importer discovers them.
func directAggregate(t *testing.T, entries []Entry) (*beacon.Aggregate, *demand.Dataset) {
	t.Helper()
	agg := beacon.NewAggregate()
	weights := make(map[netaddr.Block]float64)
	for i := range entries {
		rec, err := entries[i].Record()
		if err != nil {
			t.Fatal(err)
		}
		agg.AddRecord(rec)
		if w := entries[i].Weight(); w > 0 {
			weights[netaddr.BlockFromAddr(rec.IP)] += w
		}
	}
	d, err := demand.NewDataset(weights)
	if err != nil {
		t.Fatal(err)
	}
	return agg, d
}

func classifySet(t *testing.T, agg *beacon.Aggregate) netaddr.Set {
	t.Helper()
	cl, err := classify.New(0.5)
	if err != nil {
		t.Fatal(err)
	}
	return cl.Classify(agg)
}

// TestEquivalenceOffline pins the tentpole acceptance criterion: a conn-log
// tree imported through the full file machinery (TSV, gzip TSV, JSONL,
// multi-sensor discovery, lenient-mode malformed lines) yields BEACON,
// DEMAND and classification bit-identical to direct record injection.
func TestEquivalenceOffline(t *testing.T) {
	entries := equivEntries()
	wantAgg, wantDemand := directAggregate(t, entries)
	wantSet := classifySet(t, wantAgg)

	for _, malformed := range []bool{false, true} {
		root := writeEquivTree(t, entries, malformed)
		res, err := Import(Config{Dir: root}, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantBad := 0
		if malformed {
			wantBad = 2
		}
		if res.Stats.Records != len(entries) || res.Stats.Bad != wantBad {
			t.Fatalf("malformed=%v: stats = %+v, want %d records / %d bad",
				malformed, res.Stats, len(entries), wantBad)
		}
		if !res.Beacon.Equal(wantAgg) {
			t.Errorf("malformed=%v: imported BEACON aggregate differs from direct injection", malformed)
		}
		gotDemand, err := res.Demand()
		if err != nil {
			t.Fatal(err)
		}
		if !gotDemand.Equal(wantDemand) {
			t.Errorf("malformed=%v: imported DEMAND dataset differs from direct injection", malformed)
		}
		if got := classifySet(t, res.Beacon); !maps.Equal(got, wantSet) {
			t.Errorf("malformed=%v: classification differs: %d vs %d blocks",
				malformed, got.Len(), wantSet.Len())
		}
	}
}

// TestEquivalenceLivePath runs the same workload through the live chain:
// conn logs -> WriteSpool (gzip shards of 17 records) -> one tick of a
// local-spool live.Aggregator -> published map, against the map mapbuild
// builds from a window fed by direct injection. The two must be
// byte-identical.
func TestEquivalenceLivePath(t *testing.T) {
	entries := equivEntries()
	root := writeEquivTree(t, entries, true)

	spoolDir := t.TempDir()
	if _, err := WriteSpool(Config{Dir: root}, spoolDir, true, 17); err != nil {
		t.Fatal(err)
	}

	const days = 14 // workload spans ~10 days
	inputs := live.MapInputs{ASOf: func(netaddr.Block) (uint32, bool) { return 1, true }}
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	agg, err := live.NewAggregator(live.Config{
		SpoolDir: spoolDir, WindowDays: days,
		Inputs: inputs, Store: store, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := agg.Tick()
	if err != nil {
		t.Fatal(err)
	}
	bad := reg.Counter("live_spool_bad_lines_total", "").Value()
	if res.WindowRecords != len(entries) || bad != 0 {
		t.Fatalf("window holds %d records (%d bad lines), want %d", res.WindowRecords, bad, len(entries))
	}
	got, err := os.ReadFile(res.Generation.Path(history.MapFile))
	if err != nil {
		t.Fatal(err)
	}

	direct := live.NewMultiWindow(days)
	for i := range entries {
		rec, err := entries[i].Record()
		if err != nil {
			t.Fatal(err)
		}
		direct.Add(live.SpoolSource, rec)
	}
	m, err := mapbuild.Build(direct.Merged(), classify.DefaultThreshold, direct.Period(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() == 0 {
		t.Fatal("direct map is empty; the equivalence is vacuous")
	}
	var want bytes.Buffer
	if err := m.Write(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("live-path map (%d bytes) differs from the direct build (%d bytes)", len(got), want.Len())
	}
}

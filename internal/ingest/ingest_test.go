package ingest

import (
	"bytes"
	"compress/gzip"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/logio"
	"cellspot/internal/obs"
)

// copyTestdataTree clones the checked-in fixture tree into a temp dir and
// adds a gzip rotation shard under sensor-b, so one import run exercises
// TSV, JSONL, multi-sensor layout and gzip at once.
func copyTestdataTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	copyFile := func(src, dst string) {
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile("testdata/zeek/conn.log", filepath.Join(root, "conn.log"))
	copyFile("testdata/zeek/conn.reordered.log", filepath.Join(root, "sensor-a", "conn.2016-12-25.log"))
	copyFile("testdata/zeek/sensor-b/conn.jsonl", filepath.Join(root, "sensor-b", "conn.jsonl"))

	// Gzip rotation shard: the golden TSV, compressed.
	raw, err := os.ReadFile("testdata/zeek/conn.log")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "sensor-b", "conn.2016-12-26.log.gz"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Noise the discoverer must skip: non-conn logs, nested dirs, temp files.
	copyFile("testdata/zeek/conn.log", filepath.Join(root, "dns.log"))
	copyFile("testdata/zeek/conn.log", filepath.Join(root, "sensor-a", "connection-notes.txt"))
	if err := os.MkdirAll(filepath.Join(root, "sensor-a", "nested"), 0o755); err != nil {
		t.Fatal(err)
	}
	copyFile("testdata/zeek/conn.log", filepath.Join(root, "sensor-a", "nested", "conn.log"))
	return root
}

func TestIsConnFile(t *testing.T) {
	yes := []string{"conn.log", "conn.log.gz", "conn.jsonl", "conn.jsonl.gz",
		"conn.2016-12-25.log", "conn.14:00:00-15:00:00.log.gz", "conn.2016-12-25.jsonl"}
	no := []string{"dns.log", "conn", "conn.gz", "connection.log", "conn.log.bak", "notes.txt", "conn-summary.log"}
	for _, n := range yes {
		if !isConnFile(n) {
			t.Errorf("isConnFile(%q) = false", n)
		}
	}
	for _, n := range no {
		if isConnFile(n) {
			t.Errorf("isConnFile(%q) = true", n)
		}
	}
}

func TestImportMultiSensor(t *testing.T) {
	root := copyTestdataTree(t)
	reg := obs.NewRegistry()
	var streamed []beacon.Record
	res, err := Import(Config{Dir: root, Metrics: reg}, func(rec beacon.Record) {
		streamed = append(streamed, rec)
	})
	if err != nil {
		t.Fatal(err)
	}

	// default: conn.log (4) — dns.log and nested/ skipped.
	// sensor-a: reordered TSV (3).
	// sensor-b: jsonl (3) + gzip golden copy (4).
	want := map[string]SensorStats{
		"default":  {Files: 1, Records: 4},
		"sensor-a": {Files: 1, Records: 3},
		"sensor-b": {Files: 2, Records: 7},
	}
	if got := res.Stats.Sensors(); !reflect.DeepEqual(got, []string{"default", "sensor-a", "sensor-b"}) {
		t.Fatalf("sensors = %v", got)
	}
	for name, w := range want {
		if got := *res.Stats.PerSensor[name]; got != w {
			t.Errorf("sensor %s stats = %+v, want %+v", name, got, w)
		}
	}
	if res.Stats.Files != 4 || res.Stats.Records != 14 || res.Stats.Bad != 0 || res.Stats.Filtered != 0 {
		t.Errorf("totals = %+v", res.Stats)
	}
	if len(streamed) != 14 {
		t.Fatalf("streamed %d records", len(streamed))
	}
	if got := res.Beacon.Totals().Hits; got != 14 {
		t.Errorf("beacon total hits = %d", got)
	}

	// Per-sensor metric labels.
	for name, w := range want {
		if got := reg.Counter("ingest_records_total", "", obs.L("sensor", name)).Value(); got != uint64(w.Records) {
			t.Errorf("ingest_records_total{sensor=%s} = %d, want %d", name, got, w.Records)
		}
		if got := reg.Counter("ingest_files_total", "", obs.L("sensor", name)).Value(); got != uint64(w.Files) {
			t.Errorf("ingest_files_total{sensor=%s} = %d, want %d", name, got, w.Files)
		}
	}
	if reg.Counter("ingest_bytes_total", "").Value() == 0 {
		t.Error("ingest_bytes_total = 0")
	}

	// DEMAND weights: byte sums per block. The golden TSV contributes twice
	// (root copy + sensor-b gzip copy).
	d, err := res.Demand()
	if err != nil {
		t.Fatal(err)
	}
	if d.Blocks() == 0 || d.Total() == 0 {
		t.Errorf("demand dataset empty: %d blocks, %f DU", d.Blocks(), d.Total())
	}
}

func TestImportPolicy(t *testing.T) {
	root := copyTestdataTree(t)
	pol := &Policy{
		AlwaysInclude: []netip.Prefix{netip.MustParsePrefix("10.55.100.32/31")},
		NeverInclude: []netip.Prefix{
			netip.MustParsePrefix("10.0.0.0/8"),
			netip.MustParsePrefix("2001:db8:77::/48"),
		},
	}
	res, err := Import(Config{Dir: root, Policy: pol}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Never-include 10/8 drops 10.55.100.100 (×2 via gzip copy), 10.77.0.4,
	// 10.77.0.5 and 2001:db8:77::9 — but always-include keeps 10.55.100.32
	// (×2) and 10.55.100.33.
	if res.Stats.Filtered != 5 {
		t.Errorf("filtered = %d, want 5", res.Stats.Filtered)
	}
	if res.Stats.Records != 9 {
		t.Errorf("records = %d, want 9", res.Stats.Records)
	}
}

func TestImportLenientVsStrict(t *testing.T) {
	root := t.TempDir()
	body := "#separator \\x09\n" +
		"#fields\tts\tuid\tid.orig_h\tid.orig_p\n" +
		"1482624001.5\tC1\t10.0.0.1\t1000\n" +
		"garbage line without tabs\n" +
		"1482624002.5\tC2\tnot-an-ip\t1001\n" + // parses as TSV, fails Record()
		"1482624003.5\tC3\t10.0.0.3\t1002\n"
	if err := os.WriteFile(filepath.Join(root, "conn.log"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := Import(Config{Dir: root}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Records != 2 || res.Stats.Bad != 2 {
		t.Errorf("lenient stats = %+v, want 2 records / 2 bad", res.Stats)
	}

	if _, err := Import(Config{Dir: root, Strict: true}, nil); err == nil {
		t.Fatal("strict import accepted malformed conn.log")
	}
}

func TestWriteSpool(t *testing.T) {
	root := copyTestdataTree(t)
	out := t.TempDir()
	res, err := WriteSpool(Config{Dir: root}, out, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	files, err := logio.SpoolFiles(out, logio.SpoolPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 { // 14 records, 5 per shard
		t.Fatalf("spool shards = %d (%v), want 3", len(files), files)
	}

	// The spool replays into the same aggregate the import built.
	replay := beacon.NewAggregate()
	n := 0
	if _, err := logio.DecodeSpool(out, logio.SpoolPrefix, false, func(rec beacon.Record) error {
		replay.AddRecord(rec)
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != res.Stats.Records {
		t.Fatalf("spool replay = %d records, import = %d", n, res.Stats.Records)
	}
	if !replay.Equal(res.Beacon) {
		t.Error("spool replay aggregate differs from import aggregate")
	}
}

func TestImportEmptyAndMissingDir(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "conn.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Import(Config{Dir: root}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Files != 1 || res.Stats.Records != 0 {
		t.Errorf("empty-file stats = %+v", res.Stats)
	}
	if _, err := Import(Config{Dir: filepath.Join(root, "nope")}, nil); err == nil {
		t.Error("missing dir accepted")
	}
	if _, err := Import(Config{}, nil); err == nil {
		t.Error("empty Config.Dir accepted")
	}
}

func TestFromRecordRoundTrip(t *testing.T) {
	rec := beacon.Record{
		Time:       time.Unix(1482624001, 384196123).UTC(),
		IP:         netip.MustParseAddr("100.64.3.7"),
		Conn:       "cellular",
		Browser:    "chrome-mobile",
		PageLoadMS: 1234,
	}
	e := FromRecord(rec)
	back, err := e.Record()
	if err != nil {
		t.Fatal(err)
	}
	if back != rec {
		t.Errorf("round trip:\n got %+v\nwant %+v", back, rec)
	}
}

package main

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cellspot"
	"cellspot/internal/aschar"
	"cellspot/internal/demand"
	"cellspot/internal/logio"
	"cellspot/internal/mapbuild"
	"cellspot/internal/netaddr"
	"cellspot/internal/world"
)

// The subcommand functions are exercised directly: each is a thin
// flag-parsing wrapper over the library, so these are true end-to-end
// integration tests of the CLI surface.

func TestGenClassifyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := runGen([]string{"-out", dir, "-scale", "0.001", "-hits", "60000"}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"demand.jsonl", "truth.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
	spools, err := filepath.Glob(filepath.Join(dir, "beacon-*.jsonl"))
	if err != nil || len(spools) == 0 {
		t.Fatalf("no beacon spool: %v", err)
	}
	if err := runClassify([]string{"-data", dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "detected.jsonl")); err != nil {
		t.Fatalf("missing detected.jsonl: %v", err)
	}

	// demand.jsonl decodes back to the dataset gen wrote, row for row in
	// canonical block order.
	wcfg := world.DefaultConfig()
	wcfg.Scale, wcfg.Seed = 0.001, 1
	w, err := world.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := demand.Generate(w, demand.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := readDemandRows(t, filepath.Join(dir, "demand.jsonl"))
	if len(rows) != ds.Blocks() {
		t.Fatalf("demand.jsonl has %d rows, dataset %d blocks", len(rows), ds.Blocks())
	}
	i := 0
	ds.Each(func(b netaddr.Block, du float64) {
		if rows[i].Block != b || rows[i].DU != du {
			t.Fatalf("demand.jsonl row %d = %v %v, dataset %v %v", i, rows[i].Block, rows[i].DU, b, du)
		}
		i++
	})
	// Blocks keep their {"Fam":F,"Key":K} form byte for byte: the first
	// row, and the first /48 row.
	raw, err := os.ReadFile(filepath.Join(dir, "demand.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	if want := `{"block":{"Fam":0,"Key":65536},"du":52.669279095962345}`; lines[0] != want {
		t.Errorf("demand.jsonl first row = %s, want %s", lines[0], want)
	}
	v6 := ds.CountFamily(netaddr.IPv4) // rows are in canonical order
	if want := `{"block":{"Fam":1,"Key":35188667056128},"du":16.084392557836907}`; lines[v6] != want {
		t.Errorf("demand.jsonl first /48 row = %s, want %s", lines[v6], want)
	}
}

// readDemandRows decodes every row of a demand.jsonl file.
func readDemandRows(t *testing.T, path string) []demand.BlockDU {
	t.Helper()
	var rows []demand.BlockDU
	if _, err := logio.DecodeFile(path, false, func(r demand.BlockDU) error {
		rows = append(rows, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestGenRequiresOut(t *testing.T) {
	if err := runGen(nil); err == nil {
		t.Error("gen without -out accepted")
	}
	if err := runClassify(nil); err == nil {
		t.Error("classify without -data accepted")
	}
}

func TestClassifyRejectsBadThreshold(t *testing.T) {
	dir := t.TempDir()
	if err := runGen([]string{"-out", dir, "-scale", "0.001", "-hits", "20000"}); err != nil {
		t.Fatal(err)
	}
	if err := runClassify([]string{"-data", dir, "-threshold", "0"}); err == nil {
		t.Error("zero threshold accepted")
	}
}

func TestExportLookup(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "map.jsonl")
	if err := runExport([]string{"-o", mapPath, "-scale", "0.001"}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(mapPath); err != nil || fi.Size() == 0 {
		t.Fatalf("export produced nothing: %v", err)
	}
	// Lookup requires at least one address.
	if err := runLookup([]string{"-map", mapPath}); err == nil {
		t.Error("lookup without addresses accepted")
	}
	if err := runLookup([]string{"-map", mapPath, "1.0.0.7", "203.0.113.1"}); err != nil {
		t.Fatal(err)
	}
	if err := runLookup([]string{"-map", mapPath, "not-an-ip"}); err == nil {
		t.Error("bad address accepted")
	}
	if err := runLookup([]string{"-map", filepath.Join(dir, "missing.jsonl"), "1.2.3.4"}); err == nil {
		t.Error("missing map accepted")
	}
}

// TestExportAppliesASFilter checks that the exported map file holds the
// bytes mapbuild publishes for the same run, and no detected block of an
// AS the AS filter drops.
func TestExportAppliesASFilter(t *testing.T) {
	mapPath := filepath.Join(t.TempDir(), "map.jsonl")
	if err := runExport([]string{"-o", mapPath, "-scale", "0.002", "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(mapPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cellspot.DefaultConfig()
	cfg.World.Scale, cfg.World.Seed = 0.002, 2
	r, err := cellspot.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapbuild.Build(r.Beacon, cfg.Threshold, "2016-12", mapbuild.Inputs{
		Demand:    r.Demand,
		Rules:     aschar.Rules{MinCellDU: cfg.MinCellDU, MinHits: cfg.MinHits, Snapshot: r.World.Snapshot},
		ASOf:      r.World.ASOf,
		CountryOf: r.World.CountryOf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := m.Write(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("exported map (%d bytes) differs from mapbuild's (%d bytes)", len(got), want.Len())
	}
	kept := make(map[uint32]bool, len(r.Filter.AfterRule3))
	for _, a := range r.Filter.AfterRule3 {
		kept[a] = true
	}
	for _, e := range m.Entries() {
		if !kept[e.ASN] {
			t.Fatalf("exported %s of AS%d, which the AS filter drops", e.Prefix, e.ASN)
		}
	}
}

func TestSummary(t *testing.T) {
	if err := runSummary([]string{"-scale", "0.002"}); err != nil {
		t.Fatal(err)
	}
}

func TestCountry(t *testing.T) {
	if err := runCountry([]string{"-scale", "0.002", "GH", "US"}); err != nil {
		t.Fatal(err)
	}
	if err := runCountry([]string{"-scale", "0.002", "ZZ"}); err == nil {
		t.Error("unknown country accepted")
	}
	if err := runCountry([]string{"-scale", "0.002"}); err == nil {
		t.Error("no countries accepted")
	}
}

func TestClassifyLenientOnCorruptSpool(t *testing.T) {
	dir := t.TempDir()
	if err := runGen([]string{"-out", dir, "-scale", "0.001", "-hits", "20000"}); err != nil {
		t.Fatal(err)
	}
	// Inject garbage lines into the spool: classify must survive them.
	spools, _ := filepath.Glob(filepath.Join(dir, "beacon-*.jsonl"))
	raw, err := os.ReadFile(spools[0])
	if err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(string(raw), "\n", "\n{broken json\n", 1)
	if err := os.WriteFile(spools[0], []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runClassify([]string{"-data", dir}); err != nil {
		t.Fatalf("classify did not tolerate corrupt lines: %v", err)
	}
}

// TestIngest drives the foreign conn-log entry point end to end: a small
// Zeek-style TSV tree with a subnet policy, output spool and derived
// datasets, then the spool fed back through runClassify.
func TestIngest(t *testing.T) {
	logs := t.TempDir()
	body := "#separator \\x09\n" +
		"#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tproto\torig_bytes\tresp_bytes\tcellspot_net_type\tcellspot_browser\n" +
		"1482624001.5\tC1\t10.9.0.1\t1000\t203.0.113.1\t443\ttcp\t100\t900\tcellular\tchrome\n" +
		"1482624002.5\tC2\t10.9.0.2\t1001\t203.0.113.1\t443\ttcp\t80\t700\tcellular\tchrome\n" +
		"1482624003.5\tC3\t192.0.2.9\t1002\t203.0.113.1\t443\ttcp\t50\t400\twifi\tfirefox\n" +
		"1482624004.5\tC4\t172.16.0.9\t1003\t203.0.113.1\t443\ttcp\t10\t90\t-\t-\n"
	if err := os.WriteFile(filepath.Join(logs, "conn.log"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	policyPath := filepath.Join(logs, "policy.json")
	if err := os.WriteFile(policyPath, []byte(`{"never_include": ["172.16.0.0/12"]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	out := t.TempDir()
	if err := runIngest([]string{"-dir", logs, "-out", out, "-policy", policyPath}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"demand.jsonl", "detected.jsonl"} {
		if fi, err := os.Stat(filepath.Join(out, f)); err != nil || fi.Size() == 0 {
			t.Fatalf("missing or empty %s: %v", f, err)
		}
	}
	// The policy drops 172.16/12; the other two /24s carry demand.
	rows := readDemandRows(t, filepath.Join(out, "demand.jsonl"))
	if len(rows) != 2 || rows[0].Block != netaddr.V4Block(10, 9, 0) || rows[1].Block != netaddr.V4Block(192, 0, 2) {
		t.Fatalf("demand.jsonl rows = %v", rows)
	}
	spools, err := filepath.Glob(filepath.Join(out, "beacon-*.jsonl"))
	if err != nil || len(spools) == 0 {
		t.Fatalf("no beacon spool: %v", err)
	}

	// The spool is toolchain-compatible: classify consumes it directly
	// (no truth.jsonl here, so scoring is skipped).
	if err := runClassify([]string{"-data", out}); err != nil {
		t.Fatal(err)
	}
}

func TestIngestFlagValidation(t *testing.T) {
	if err := runIngest(nil); err == nil {
		t.Error("ingest without -dir accepted")
	}
	logs := t.TempDir()
	if err := os.WriteFile(filepath.Join(logs, "conn.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runIngest([]string{"-dir", logs, "-policy", filepath.Join(logs, "missing.json")}); err == nil {
		t.Error("ingest with missing policy file accepted")
	}
	if err := runIngest([]string{"-dir", logs, "-threshold", "2"}); err == nil {
		t.Error("ingest with out-of-range threshold accepted")
	}
	// Policy-less run over an empty tree succeeds with zero records.
	if err := runIngest([]string{"-dir", logs}); err != nil {
		t.Fatal(err)
	}
}

// TestClassifySkipsInvalidRecords: spool lines the collector would refuse
// are skipped, not aggregated. A record with no ip once folded into block
// ::/48, so a run of cellular-labelled ones made that block "cellular".
func TestClassifySkipsInvalidRecords(t *testing.T) {
	dir := t.TempDir()
	if err := runGen([]string{"-out", dir, "-scale", "0.001", "-hits", "20000"}); err != nil {
		t.Fatal(err)
	}
	spools, _ := filepath.Glob(filepath.Join(dir, "beacon-*.jsonl"))
	f, err := os.OpenFile(spools[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	invalid := `{"ts":"2016-12-01T00:00:00Z","conn":"cellular","browser":"x","plt_ms":1}` + "\n"
	if _, err := f.WriteString(strings.Repeat(invalid, 200)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := runClassify([]string{"-data", dir}); err != nil {
		t.Fatal(err)
	}
	detected, err := os.ReadFile(filepath.Join(dir, "detected.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if zero := netaddr.BlockFromAddr(netip.Addr{}).String(); strings.Contains(string(detected), `"`+zero+`"`) {
		t.Fatalf("invalid records made block %s cellular", zero)
	}
}

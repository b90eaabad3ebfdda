package pipeline

import (
	"os"
	"path/filepath"
	"testing"

	"cellspot/internal/beacon"
	"cellspot/internal/ingest"
)

func writeForeignTree(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	body := "#separator \\x09\n" +
		"#fields\tts\tuid\tid.orig_h\tid.orig_p\torig_bytes\tresp_bytes\tcellspot_net_type\n" +
		"1482624001.5\tC1\t10.9.0.1\t1000\t100\t900\tcellular\n" +
		"1482624002.5\tC2\t10.9.0.2\t1001\t80\t700\tcellular\n" +
		"1482624003.5\tC3\t192.0.2.9\t1002\t50\t400\twifi\n" +
		"garbage that is not TSV\n" +
		"1482624004.5\tC4\t192.0.2.10\t1003\t10\t90\twifi\n"
	if err := os.WriteFile(filepath.Join(dir, "conn.log"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunForeign(t *testing.T) {
	dir := writeForeignTree(t)
	var hooked []beacon.Record
	r, err := RunForeign(ingest.Config{Dir: dir}, 0, func(rec beacon.Record) {
		hooked = append(hooked, rec)
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Records != 4 || r.Stats.Bad != 1 {
		t.Fatalf("stats = %+v, want 4 records / 1 bad", r.Stats)
	}
	if len(hooked) != 4 {
		t.Fatalf("hook saw %d records", len(hooked))
	}
	// 10.9.0.0/24 is all-cellular; 192.0.2.0/24 is all-wifi.
	if r.Detected.Len() != 1 {
		t.Fatalf("detected %d blocks, want 1", r.Detected.Len())
	}
	if r.Demand.Blocks() != 2 || r.Demand.Total() == 0 {
		t.Errorf("demand: %d blocks, %f DU", r.Demand.Blocks(), r.Demand.Total())
	}

	// Strict mode aborts on the injected garbage line.
	if _, err := RunForeign(ingest.Config{Dir: dir, Strict: true}, 0, nil); err == nil {
		t.Error("strict RunForeign accepted malformed input")
	}
	// Out-of-range threshold is rejected before any I/O.
	if _, err := RunForeign(ingest.Config{Dir: dir}, 1.5, nil); err == nil {
		t.Error("threshold 1.5 accepted")
	}
}

package live

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cellspot/internal/beacon"
	"cellspot/internal/logio"
	"cellspot/internal/netaddr"
	"cellspot/internal/netinfo"
	"cellspot/internal/obs"
)

// spoolAggregator returns an aggregator over dir's "beacon" spool, with
// its metrics registry.
func spoolAggregator(t *testing.T, dir string) (*Aggregator, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	a, err := NewAggregator(Config{
		SpoolDir: dir,
		Inputs:   MapInputs{ASOf: func(netaddr.Block) (uint32, bool) { return 1, true }},
		Store:    mustOpenStore(t),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, reg
}

func mustTick(t *testing.T, a *Aggregator) Refresh {
	t.Helper()
	res, err := a.Tick()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func counter(reg *obs.Registry, name string) uint64 { return reg.Counter(name, "").Value() }

// spoolRecords returns n cellular records on one day, one block each from
// first on.
func spoolRecords(first, n int) []beacon.Record {
	recs := make([]beacon.Record, n)
	for i := range recs {
		recs[i] = recAt(100, fmt.Sprintf("10.0.%d.1", first+i), netinfo.ConnCellular.String())
	}
	return recs
}

// TestLocalSpoolNewShardFoldsOnlyItsRecords: a shard sealed after a tick
// folds only its own records on the next one; its predecessor, read to
// its acked offset, is not read again.
func TestLocalSpoolNewShardFoldsOnlyItsRecords(t *testing.T) {
	dir := t.TempDir()
	writeShards(t, dir, 0, spoolRecords(0, 2), 1, false)
	a, reg := spoolAggregator(t, dir)
	if res := mustTick(t, a); !res.Published || res.NewRecords != 2 {
		t.Fatalf("first tick: %+v, want 2 new records", res)
	}

	writeShards(t, dir, 1, spoolRecords(2, 1), 1, false)
	res := mustTick(t, a)
	if !res.Published || res.NewRecords != 1 || res.WindowRecords != 3 {
		t.Fatalf("tick after a new shard: %+v, want 1 new of 3", res)
	}
	if res := mustTick(t, a); res.Published {
		t.Fatal("idle tick republished")
	}
	if v := counter(reg, "live_tailed_records_total"); v != 3 {
		t.Fatalf("live_tailed_records_total = %d, want 3", v)
	}
	acked := a.Status().Acked
	for _, shard := range []string{"beacon-0000.jsonl", "beacon-0001.jsonl"} {
		fi, err := os.Stat(filepath.Join(dir, shard))
		if err != nil {
			t.Fatal(err)
		}
		if acked[shard] != fi.Size() {
			t.Fatalf("acked[%s] = %d, want the shard's size %d (acked %v)", shard, acked[shard], fi.Size(), acked)
		}
	}
}

func TestLocalSpoolSkipsMalformedCountsBad(t *testing.T) {
	dir := t.TempDir()
	content := `{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1"}` + "\n" +
		"this is not json\n" +
		`{"ts":"2016-12-01T00:00:01Z","ip":"10.0.0.2"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "beacon-0000.jsonl"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	a, reg := spoolAggregator(t, dir)
	if res := mustTick(t, a); res.NewRecords != 2 {
		t.Fatalf("folded %d records, want 2", res.NewRecords)
	}
	if v := counter(reg, "live_spool_bad_lines_total"); v != 1 {
		t.Fatalf("live_spool_bad_lines_total = %d, want 1", v)
	}
}

func TestLocalSpoolMissingDirIsEmpty(t *testing.T) {
	a, reg := spoolAggregator(t, filepath.Join(t.TempDir(), "does-not-exist"))
	res := mustTick(t, a)
	if !res.Published || res.WindowRecords != 0 || res.Entries != 0 {
		t.Fatalf("tick over a missing spool: %+v, want one empty generation", res)
	}
	if v := counter(reg, "live_refresh_errors_total"); v != 0 {
		t.Fatalf("live_refresh_errors_total = %d, want 0", v)
	}
}

// TestLocalSpoolOversizeLine: one spool line beyond logio.MaxLineBytes is
// skipped and counted, in a plain and in a gzip shard, and the records
// around it are folded.
func TestLocalSpoolOversizeLine(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a >16MB spool line")
	}
	var text bytes.Buffer
	for i, rec := range spoolRecords(0, 2) {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		text.Write(append(b, '\n'))
		if i == 0 {
			text.WriteString(`{"junk":"` + strings.Repeat("a", logio.MaxLineBytes) + `"}` + "\n")
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "beacon-0000.jsonl"), text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(text.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "beacon-0001.jsonl.gz"), gz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	a, reg := spoolAggregator(t, dir)
	if res := mustTick(t, a); res.NewRecords != 4 {
		t.Fatalf("folded %d records, want 4", res.NewRecords)
	}
	if v := counter(reg, "live_spool_oversize_lines_total"); v != 2 {
		t.Fatalf("live_spool_oversize_lines_total = %d, want 2 (one per shard)", v)
	}
	if v := counter(reg, "live_spool_bad_lines_total"); v != 0 {
		t.Fatalf("live_spool_bad_lines_total = %d, want 0: oversize lines count apart", v)
	}
	if res := mustTick(t, a); res.Published {
		t.Fatal("idle tick republished")
	}
	if v := counter(reg, "live_spool_oversize_lines_total"); v != 2 {
		t.Fatalf("idle tick re-counted oversize lines: %d", v)
	}
}

// TestLocalSpoolShardsPastTheSegmentCap: a plain line longer than
// logio.MaxSegmentBytes is skipped and counted, the input commits past it,
// and a gzip shard bigger than MaxSegmentBytes is read whole; neither
// stops the shards after them.
func TestLocalSpoolShardsPastTheSegmentCap(t *testing.T) {
	if testing.Short() {
		t.Skip("writes two >17MB spool shards")
	}
	recLine := func(rec beacon.Record) []byte {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	dir := t.TempDir()
	var plain bytes.Buffer
	plain.Write(recLine(spoolRecords(0, 1)[0]))
	plain.WriteString(`{"junk":"` + strings.Repeat("a", logio.MaxSegmentBytes) + `"}` + "\n")
	plain.Write(recLine(spoolRecords(1, 1)[0]))
	if err := os.WriteFile(filepath.Join(dir, "beacon-0000.jsonl"), plain.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Stored, not deflated, so the shard is as big as its text.
	var gz bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&gz, gzip.NoCompression)
	zw.Write(recLine(spoolRecords(2, 1)[0]))
	junk := []byte(`{"junk":"` + strings.Repeat("b", 1<<20) + `"` + "\n")
	for gz.Len() <= logio.MaxSegmentBytes {
		zw.Write(junk)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "beacon-0001.jsonl.gz"), gz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	writeShards(t, dir, 2, spoolRecords(3, 1), 1, false)

	a, reg := spoolAggregator(t, dir)
	if res := mustTick(t, a); res.NewRecords != 4 {
		t.Fatalf("folded %d records, want 4", res.NewRecords)
	}
	if v := counter(reg, "live_spool_oversize_lines_total"); v != 1 {
		t.Fatalf("live_spool_oversize_lines_total = %d, want 1", v)
	}
	if v := counter(reg, "live_spool_bad_lines_total"); v == 0 {
		t.Fatal("the gzip shard's junk lines were not counted as bad")
	}
	if got, want := a.Status().Acked["beacon-0000.jsonl"], int64(plain.Len()); got != want {
		t.Fatalf("acked past the long line = %d, want the shard's size %d", got, want)
	}
	if res := mustTick(t, a); res.Published {
		t.Fatal("idle tick republished")
	}
}

// TestLocalSpoolBadShardPublishesTheRest: a shard that cannot be read
// fails every tick, but the shards around it are folded and published.
func TestLocalSpoolBadShardPublishesTheRest(t *testing.T) {
	dir := t.TempDir()
	writeShards(t, dir, 0, spoolRecords(0, 1), 1, false)
	if err := os.WriteFile(filepath.Join(dir, "beacon-0001.jsonl.gz"), []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	writeShards(t, dir, 2, spoolRecords(1, 1), 1, false)
	a, reg := spoolAggregator(t, dir)
	res, err := a.Tick()
	if err == nil || !strings.Contains(err.Error(), "beacon-0001.jsonl.gz") {
		t.Fatalf("tick over a corrupt shard: err = %v, want one naming it", err)
	}
	if !res.Published || res.NewRecords != 2 {
		t.Fatalf("tick over a corrupt shard: %+v, want the other 2 records published", res)
	}
	if res, err := a.Tick(); err == nil || res.Published {
		t.Fatalf("second tick: %+v err=%v, want an error and no publish", res, err)
	}
	if v := counter(reg, "live_refresh_errors_total"); v != 2 {
		t.Fatalf("live_refresh_errors_total = %d, want 2", v)
	}
}

// TestLocalSpoolShrunkShardIsTickError: sealed shards are immutable, so a
// shard found smaller than its acked offset fails the tick, counts in
// live_refresh_errors_total, and leaves the window and the current
// generation unchanged.
func TestLocalSpoolShrunkShardIsTickError(t *testing.T) {
	dir := t.TempDir()
	writeShards(t, dir, 0, spoolRecords(0, 3), 1, false)
	a, reg := spoolAggregator(t, dir)
	first := mustTick(t, a)

	writeShards(t, dir, 0, spoolRecords(7, 1), 1, false)
	if _, err := a.Tick(); err == nil || !strings.Contains(err.Error(), "shrank below acked offset") {
		t.Fatalf("tick over a shrunk shard: err = %v, want a shrink error", err)
	}
	if v := counter(reg, "live_refresh_errors_total"); v != 1 {
		t.Fatalf("live_refresh_errors_total = %d, want 1", v)
	}
	if got := a.Status().Records; got != 3 {
		t.Fatalf("window holds %d records, want the 3 folded before the shrink", got)
	}
	cur, ok, err := a.cfg.Store.Current()
	if err != nil || !ok || cur.Seq != first.Generation.Seq {
		t.Fatalf("current generation moved: %+v ok=%v err=%v", cur, ok, err)
	}
}

// TestFoldRefusesWhatTheCollectorRefuses: a shipped or spooled line that
// the collector would have refused, here one with no ip and an unknown
// conn token, is skipped as bad. It used to fold as one API hit into
// block ::/48.
func TestFoldRefusesWhatTheCollectorRefuses(t *testing.T) {
	payload := []byte(`{"ts":"2016-12-01T00:00:00Z","browser":"x","conn":"bogus"}` + "\n" +
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","conn":"bogus","browser":"x","plt_ms":1}` + "\n" +
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","conn":"cellular","browser":"x","plt_ms":1}` + "\n")
	var got []beacon.Record
	st := eachRecord(payload, func(r beacon.Record) { got = append(got, r) })
	if st.Records != 1 || st.Bad != 2 || len(got) != 1 || got[0].Conn != "cellular" {
		t.Fatalf("stats %+v, folded %+v; want only the valid record folded and two bad lines", st, got)
	}
}

// FuzzFoldPayload checks the payload decoder behind FoldPayload against
// logio.Decode in lenient mode plus beacon.Record.Validate, the reference:
// wherever Decode succeeds, both yield the same valid records in the same
// order and the same count of malformed or invalid lines, and records plus
// bad and oversize lines always add up to the non-blank lines.
func FuzzFoldPayload(f *testing.F) {
	f.Add([]byte(`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","conn":"cellular"}` + "\n\n \r\nnot json\n" + `{"ip":"2001:db8::1","rat":"4g"}`))
	f.Add([]byte(`{"ts":"2016-12-01T00:00:00+01:00","ip":"10.0.0.1"}` + "\r\n\x85\n{}"))
	f.Add([]byte(`{"ts":"2016-12-01T00:00:00Z","browser":"x","conn":"bogus"}` + "\n" +
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","conn":"cellular","rat":"4g","browser":"x","plt_ms":7}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var got []beacon.Record
		st := eachRecord(payload, func(r beacon.Record) { got = append(got, r) })
		nonBlank := 0
		for _, line := range bytes.Split(payload, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				nonBlank++
			}
		}
		if st.Records != len(got) || st.Records+st.Bad+st.Oversize != nonBlank {
			t.Fatalf("stats %+v over %d records and %d non-blank lines", st, len(got), nonBlank)
		}
		var want []beacon.Record
		invalid := 0
		ref, err := logio.Decode(bytes.NewReader(payload), true, func(r beacon.Record) error {
			if r.Validate() != nil {
				invalid++
				return nil
			}
			want = append(want, r)
			return nil
		})
		if err != nil {
			return
		}
		if st.Bad != ref.Bad+invalid || st.Oversize != 0 {
			t.Fatalf("stats %+v, reference %+v", st, ref)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("records differ from the reference:\n got %s\nwant %s", gotJSON, wantJSON)
		}
	})
}

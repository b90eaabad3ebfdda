package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/history"
)

// TestFederationE2E is the tentpole proof: three independent collectors
// spool and ship to one aggregation plane through collector kill/restart,
// a duplicate manifest replay, and an aggregator crash — and the final
// published map is byte-identical to a single-collector offline build over
// the same records.
func TestFederationE2E(t *testing.T) {
	const total = 3000
	all := genRecords(total, 17000, 6)

	// Deal records round-robin to three collectors, like three regional
	// vantage points each seeing a slice of the same population.
	parts := make([][]beacon.Record, 3)
	for i, rec := range all {
		parts[i%3] = append(parts[i%3], rec)
	}

	storeDir := t.TempDir()
	p1 := newPlane(t, storeDir)

	spools := make([]string, 3)
	mkShipper := func(i int, target string) *Shipper {
		s, err := NewShipper(ShipperConfig{
			SpoolDir:    spools[i],
			CollectorID: fmt.Sprintf("region-%d", i),
			Target:      target,
			StateFile:   filepath.Join(spools[i], "shipper.json"),
			// Small segments so every shard ships in several pieces.
			SegmentBytes: 4096,
			MaxAttempts:  4,
			RetryBase:    time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Phase 1: every collector spools 60% of its records (sealed in
	// 150-record shards) and ships; the aggregator publishes.
	cutoff := make([]int, 3)
	for i := range spools {
		spools[i] = t.TempDir()
		cutoff[i] = len(parts[i]) * 6 / 10
		writeSpool(t, spools[i], parts[i][:cutoff[i]], 150, false)
		if _, err := mkShipper(i, p1.srv.URL).PollOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p1.recv.Tick(); err != nil {
		t.Fatal(err)
	}
	published := cutoff[0] + cutoff[1] + cutoff[2]
	if got := receiverStatus(t, p1.srv.URL).Records; got != published {
		t.Fatalf("phase 1 records = %d, want %d", got, published)
	}

	// Phase 2: collector 0 was killed and restarted mid-stream. Its new
	// process reopens the same spool directory (numbering resumes past the
	// sealed shards) and a new shipper resumes from the same checkpoint.
	writeSpool(t, spools[0], parts[0][cutoff[0]:], 150, false)
	s0 := mkShipper(0, p1.srv.URL)
	rep, err := s0.PollOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != len(parts[0])-cutoff[0] {
		t.Fatalf("restarted collector shipped %d records, want %d", rep.Records, len(parts[0])-cutoff[0])
	}

	// Phase 3: a duplicate manifest replay — collector 1 re-offers the
	// start of its first shard. The receiver must absorb it without
	// folding.
	shard1 := filepath.Join(spools[1], "beacon-0000.jsonl")
	raw, err := os.ReadFile(shard1)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.IndexByte(raw, '\n') + 1
	replay := Manifest{
		Format: ManifestFormat, Collector: "region-1", Shard: "beacon-0000.jsonl",
		Offset: 0, Length: int64(cut), SHA256: Digest(raw[:cut]),
		Records: 1, ShardSize: int64(len(raw)),
	}
	if status, resp := postSegment(t, p1.srv.URL, replay, raw[:cut]); status != 200 || !resp.Duplicate {
		t.Fatalf("replay: status %d duplicate %v, want 200/true", status, resp.Duplicate)
	}

	// Phase 4: the aggregator crashes with collector 0's phase-2 records
	// acked but unpublished, and restarts from the store. Shippers detect
	// the rollback via probes and re-ship exactly the lost tail.
	beforeCrash := receiverStatus(t, p1.srv.URL).Records
	if beforeCrash != published+len(parts[0])-cutoff[0] {
		t.Fatalf("pre-crash records = %d", beforeCrash)
	}
	p1.srv.Close()
	p2 := newPlane(t, storeDir)
	if got := p2.recv.Status().Records; got != published {
		t.Fatalf("recovered window = %d records, want the %d published", got, published)
	}
	rep, err = mkShipper(0, p2.srv.URL).PollOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rewinds == 0 {
		t.Fatal("collector 0 never rewound after the aggregator restart")
	}

	// Phase 5: the other collectors finish their streams against the
	// restarted aggregator.
	for i := 1; i < 3; i++ {
		writeSpool(t, spools[i], parts[i][cutoff[i]:], 150, false)
		if _, err := mkShipper(i, p2.srv.URL).PollOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p2.recv.Tick(); err != nil {
		t.Fatal(err)
	}

	st := receiverStatus(t, p2.srv.URL)
	if st.Records != total {
		t.Fatalf("final records = %d, want exactly %d (no loss, no double-fold)", st.Records, total)
	}
	if len(st.Sources) != 3 {
		t.Fatalf("sources = %v, want 3 collectors", st.Sources)
	}
	for i := range parts {
		if st.Sources[fmt.Sprintf("region-%d", i)] != len(parts[i]) {
			t.Fatalf("source region-%d = %d records, want %d",
				i, st.Sources[fmt.Sprintf("region-%d", i)], len(parts[i]))
		}
	}
	if got, want := currentMapBytes(t, p2.store), offlineMap(t, all); !bytes.Equal(got, want) {
		t.Fatal("federated map diverges from the single-collector offline build")
	}
	// The generation's metadata records the window's day range: the
	// records span days 17000..17005, so the seven-day window ends at
	// 17005 and starts six days earlier.
	cur, _, err := p2.store.Current()
	if err != nil {
		t.Fatal(err)
	}
	rawMeta, err := os.ReadFile(cur.Path(history.MetaFile))
	if err != nil {
		t.Fatal(err)
	}
	var meta history.GenMeta
	if err := json.Unmarshal(rawMeta, &meta); err != nil {
		t.Fatal(err)
	}
	fmtDay := func(d int64) string { return time.Unix(d*86400, 0).UTC().Format("2006-01-02") }
	if meta.DayFirst != fmtDay(16999) || meta.DayLast != fmtDay(17005) {
		t.Fatalf("meta day range = %q..%q, want %q..%q", meta.DayFirst, meta.DayLast, fmtDay(16999), fmtDay(17005))
	}

	// The shipped bytes are durable: one more poll per collector observes
	// durable == sealed and ships nothing.
	for i := 0; i < 3; i++ {
		s := mkShipper(i, p2.srv.URL)
		if rep, err := s.PollOnce(context.Background()); err != nil || rep.Segments != 0 {
			t.Fatalf("collector %d: settle poll rep=%+v err=%v", i, rep, err)
		}
		stats, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.DurableBytes != stats.SealedBytes {
			t.Fatalf("collector %d: durable %d of %d sealed bytes", i, stats.DurableBytes, stats.SealedBytes)
		}
	}
}

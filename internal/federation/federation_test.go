package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/classify"
	"cellspot/internal/faultline"
	"cellspot/internal/history"
	"cellspot/internal/live"
	"cellspot/internal/logio"
	"cellspot/internal/mapbuild"
	"cellspot/internal/netaddr"
	"cellspot/internal/netinfo"
	"cellspot/internal/obs"
	"cellspot/internal/rum"
	"cellspot/internal/snapshot"
)

// --- fixtures ---------------------------------------------------------

func frec(day int64, ip string, conn string) beacon.Record {
	return beacon.Record{
		Time: time.Unix(day*86400+3600, 0).UTC(),
		IP:   netip.MustParseAddr(ip),
		Conn: conn,
	}
}

// genRecords builds a deterministic record stream spread over nDays
// consecutive days starting at baseDay, across many /24 blocks with a
// cellular-heavy connection mix. All days fit one default window, so fold
// order never changes what is retained.
func genRecords(n int, baseDay int64, nDays int) []beacon.Record {
	conns := []string{
		netinfo.ConnCellular.String(),
		netinfo.ConnCellular.String(),
		netinfo.ConnWiFi.String(),
		netinfo.ConnUnknown.String(),
	}
	recs := make([]beacon.Record, 0, n)
	for i := 0; i < n; i++ {
		ip := fmt.Sprintf("10.%d.%d.%d", (i/17)%200, i%251, 1+(i*7)%250)
		day := baseDay + int64(i%nDays)
		recs = append(recs, frec(day, ip, conns[i%len(conns)]))
	}
	return recs
}

func testInputs() live.MapInputs {
	return live.MapInputs{ASOf: func(netaddr.Block) (uint32, bool) { return 64496, true }}
}

// writeSpool appends records to a collector spool with sealed-shard
// rotation every perShard records, like a running beacond would.
func writeSpool(t testing.TB, dir string, recs []beacon.Record, perShard int, gzipped bool) {
	t.Helper()
	sp := logio.NewSpool(dir, logio.SpoolPrefix, gzipped, perShard)
	for _, rec := range recs {
		line, err := beacon.AppendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.WriteLine(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
}

// plane is one aggregator: store + receiver + HTTP server.
type plane struct {
	store *snapshot.Store
	recv  *Receiver
	srv   *httptest.Server
	reg   *obs.Registry
}

func newPlane(t testing.TB, storeDir string) *plane {
	t.Helper()
	store, err := snapshot.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	recv, err := NewReceiver(ReceiverConfig{
		Inputs:     testInputs(),
		Store:      store,
		RetryAfter: time.Millisecond,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	recv.MountRoutes(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &plane{store: store, recv: recv, srv: srv, reg: reg}
}

func (p *plane) counter(name string) uint64 { return p.reg.Counter(name, "").Value() }

func newShipper(t testing.TB, spoolDir, id, target string, segBytes int) *Shipper {
	t.Helper()
	s, err := NewShipper(ShipperConfig{
		SpoolDir:     spoolDir,
		CollectorID:  id,
		Target:       target,
		SegmentBytes: segBytes,
		MaxAttempts:  4,
		RetryBase:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// postSegment sends one raw framed segment and decodes the reply.
func postSegment(t testing.TB, target string, m Manifest, payload []byte) (int, SegmentResponse) {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSegment(&buf, m, payload); err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(target+SegmentsPath, SegmentContentType, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp SegmentResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return httpResp.StatusCode, resp
}

func receiverStatus(t testing.TB, target string) live.Status {
	t.Helper()
	httpResp, err := http.Get(target + StatusPath)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var st live.Status
	if err := json.NewDecoder(httpResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// offlineMap is the ground truth a federated build must match exactly:
// keep the records of the last live.DefaultWindowDays days before the
// newest one, aggregate them directly and run the offline build chain.
func offlineMap(t testing.TB, recs []beacon.Record) []byte {
	t.Helper()
	day := func(rec beacon.Record) int64 { return rec.Time.Unix() / 86400 }
	newest := day(recs[0])
	for _, rec := range recs {
		newest = max(newest, day(rec))
	}
	oldest := newest - live.DefaultWindowDays + 1
	agg := beacon.NewAggregate()
	for _, rec := range recs {
		if day(rec) >= oldest {
			agg.AddRecord(rec)
		}
	}
	fmtDay := func(d int64) string { return time.Unix(d*86400, 0).UTC().Format("2006-01-02") }
	period := "live:" + fmtDay(oldest) + ".." + fmtDay(newest)
	m, err := mapbuild.Build(agg, classify.DefaultThreshold, period, testInputs())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func currentMapBytes(t testing.TB, store *snapshot.Store) []byte {
	t.Helper()
	cur, ok, err := store.Current()
	if err != nil || !ok {
		t.Fatalf("no current generation (ok=%v err=%v)", ok, err)
	}
	raw, err := os.ReadFile(cur.Path(history.MapFile))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// --- receiver dedup / fold rules --------------------------------------

// TestReceiverDedup drives the exactly-once fold rules over one shard:
// replayed manifests, overlapping byte ranges, gaps, digest mismatches and
// probes, asserting the window never double-folds.
func TestReceiverDedup(t *testing.T) {
	recs := genRecords(40, 17000, 4)
	spool := t.TempDir()
	writeSpool(t, spool, recs, 0, false)
	raw, err := os.ReadFile(filepath.Join(spool, "beacon-0000.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(raw))
	// Split at a line boundary near the middle.
	cut := int64(bytes.IndexByte(raw[size/2:], '\n')) + size/2 + 1
	seg1, seg2 := raw[:cut], raw[cut:]
	countLines := func(b []byte) int { return bytes.Count(b, []byte("\n")) }

	mf := func(offset int64, payload []byte) Manifest {
		return Manifest{
			Format: ManifestFormat, Collector: "c-1", Shard: "beacon-0000.jsonl",
			Offset: offset, Length: int64(len(payload)),
			SHA256: Digest(payload), Records: countLines(payload), ShardSize: size,
		}
	}

	p := newPlane(t, t.TempDir())
	steps := []struct {
		name        string
		m           Manifest
		payload     []byte
		wantStatus  int
		wantDup     bool
		wantRecords int // window records after the step
	}{
		{"first segment folds", mf(0, seg1), seg1, 200, false, countLines(seg1)},
		{"exact replay is a duplicate", mf(0, seg1), seg1, 200, true, countLines(seg1)},
		{"overlapping range rejected", mf(cut/2, raw[cut/2:cut+64]), raw[cut/2 : cut+64], 409, false, countLines(seg1)},
		{"gap rejected", mf(cut+10, seg2[10:]), seg2[10:], 409, false, countLines(seg1)},
		{"second segment folds", mf(cut, seg2), seg2, 200, false, len(recs)},
		{"replay of the whole shard is a duplicate", mf(0, raw), raw, 200, true, len(recs)},
	}
	for _, tc := range steps {
		t.Run(tc.name, func(t *testing.T) {
			status, resp := postSegment(t, p.srv.URL, tc.m, tc.payload)
			if status != tc.wantStatus {
				t.Fatalf("status = %d (%s), want %d", status, resp.Error, tc.wantStatus)
			}
			if resp.Duplicate != tc.wantDup {
				t.Fatalf("duplicate = %v, want %v", resp.Duplicate, tc.wantDup)
			}
			if got := receiverStatus(t, p.srv.URL).Records; got != tc.wantRecords {
				t.Fatalf("window records = %d, want %d", got, tc.wantRecords)
			}
			if status == 409 && resp.Acked != cut && tc.name == "gap rejected" {
				// 409 must carry the authoritative acked offset.
				t.Fatalf("409 acked = %d, want %d", resp.Acked, cut)
			}
		})
	}

	// Probe at the acked offset confirms the whole shard is in.
	if status, resp := postSegment(t, p.srv.URL, mf(size, nil), nil); status != 200 || resp.Acked != size {
		t.Fatalf("probe: status %d acked %d", status, resp.Acked)
	}

	// Digest mismatch: right offset, manifest digest does not match the
	// payload. Must not fold and must not advance acked. (A replayed
	// offset would be absorbed before the digest check, so use a fresh
	// shard.)
	corrupt := mf(0, seg1)
	corrupt.Shard = "beacon-0001.jsonl"
	corrupt.SHA256 = Digest(seg2) // wrong digest for seg1
	if status, resp := postSegment(t, p.srv.URL, corrupt, seg1); status != 400 {
		t.Fatalf("digest mismatch: status %d (%s)", status, resp.Error)
	}
	if got := p.counter("federation_recv_digest_mismatch_total"); got != 1 {
		t.Fatalf("digest mismatch counter = %d, want 1", got)
	}
	if got := receiverStatus(t, p.srv.URL).Records; got != len(recs) {
		t.Fatalf("window records after digest mismatch = %d, want %d", got, len(recs))
	}

	// Probe beyond acked: the shipper thinks more was acked than we do.
	probe := Manifest{
		Format: ManifestFormat, Collector: "c-1", Shard: "beacon-0002.jsonl",
		Offset: 100, ShardSize: 200,
	}
	if status, resp := postSegment(t, p.srv.URL, probe, nil); status != 409 || resp.Acked != 0 {
		t.Fatalf("ahead probe: status %d acked %d, want 409/0", status, resp.Acked)
	}

	if dup := p.counter("federation_recv_duplicates_total"); dup != 2 {
		t.Fatalf("duplicates counter = %d, want 2", dup)
	}
}

// gateFS stalls the first rename (a publish moving its staged generation
// into place) until release is closed, holding a Tick mid-drain.
type gateFS struct {
	faultline.FS
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gateFS) Rename(oldpath, newpath string) error {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.FS.Rename(oldpath, newpath)
}

// TestReceiverOversizeLineFoldsOnce: a digest-valid segment holding a line
// longer than logio.MaxLineBytes folds whole on its first POST, the long
// line skipped and counted, and its retries are duplicates. The receiver
// once refused such a segment with 400 after folding the lines before the
// long one, and folded them again on every retry.
func TestReceiverOversizeLineFoldsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("posts a >16MB segment")
	}
	var payload bytes.Buffer
	for i, rec := range genRecords(2, 17000, 1) {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		payload.Write(append(b, '\n'))
		if i == 0 {
			payload.WriteString(`{"junk":"` + strings.Repeat("a", logio.MaxLineBytes) + `"}` + "\n")
		}
	}
	p := newPlane(t, t.TempDir())
	m := Manifest{
		Format: ManifestFormat, Collector: "c-1", Shard: "beacon-0000.jsonl",
		Length: int64(payload.Len()), SHA256: Digest(payload.Bytes()), Records: 3, ShardSize: int64(payload.Len()),
	}
	for i := 0; i < 3; i++ {
		status, resp := postSegment(t, p.srv.URL, m, payload.Bytes())
		if status != http.StatusOK || resp.Acked != m.Length || resp.Duplicate != (i > 0) {
			t.Fatalf("POST %d: status %d %+v, want 200 acked %d duplicate=%v", i+1, status, resp, m.Length, i > 0)
		}
	}
	if got := p.recv.Status().Records; got != 2 {
		t.Fatalf("window holds %d records, want 2", got)
	}
	if v := p.counter("federation_recv_bad_lines_total"); v != 1 {
		t.Fatalf("federation_recv_bad_lines_total = %d, want 1", v)
	}
}

// TestShipperShipsEdgeOfRangeDays: a collector accepts any RFC 3339
// timestamp, and one whose zone offset pushes its UTC day to year 10000
// or -1 formats to an 11-byte day in the manifest. Such beacons ship like
// any other, and the shards after them ship too. A manifest check that
// parsed days once refused them with 400, which stopped the collector's
// shipping for good.
func TestShipperShipsEdgeOfRangeDays(t *testing.T) {
	spool := t.TempDir()
	col := rum.NewCollector(rum.WithSpool(logio.NewSpool(spool, logio.SpoolPrefix, false, 1)))
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()
	for _, ts := range []string{"9999-12-31T23:00:00-05:00", "0000-01-01T00:30:00+01:00", "2016-12-15T12:00:00Z"} {
		body := `{"ts":"` + ts + `","ip":"10.0.0.1","conn":"cellular"}` + "\n"
		resp, err := http.Post(srv.URL+"/v1/beacons", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("beacon at %s: status %d, want 200", ts, resp.StatusCode)
		}
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	p := newPlane(t, t.TempDir())
	s := newShipper(t, spool, "c-1", p.srv.URL, 0)
	rep, err := s.PollOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 3 || rep.Records != 3 || rep.LagBytes != 0 {
		t.Fatalf("poll: %+v, want all 3 one-record shards shipped", rep)
	}
}

// TestReceiverBackpressure: while a Tick drains the window into a publish,
// the receiver answers payloads with 429 + Retry-After but keeps answering
// probes; once the publish lands, folds resume.
func TestReceiverBackpressure(t *testing.T) {
	gate := &gateFS{FS: faultline.OS(), entered: make(chan struct{}), release: make(chan struct{})}
	store, err := snapshot.OpenFS(t.TempDir(), gate)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := NewReceiver(ReceiverConfig{Inputs: testInputs(), Store: store, RetryAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	recv.MountRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ticked := make(chan error, 1)
	go func() {
		_, err := recv.Tick()
		ticked <- err
	}()
	<-gate.entered
	released := false
	defer func() {
		if !released {
			close(gate.release)
		}
	}()

	payload := []byte("{\"ts\":\"2016-07-01T00:00:00Z\",\"ip\":\"10.0.0.1\",\"conn\":\"cellular\"}\n")
	m := Manifest{
		Format: ManifestFormat, Collector: "c-1", Shard: "beacon-0000.jsonl",
		Offset: 0, Length: int64(len(payload)), SHA256: Digest(payload),
		Records: 1, ShardSize: int64(len(payload)),
	}
	var buf bytes.Buffer
	if err := EncodeSegment(&buf, m, payload); err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(srv.URL+SegmentsPath, SegmentContentType, &buf)
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("draining receiver answered %d, want 429", httpResp.StatusCode)
	}
	if httpResp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	probe := m
	probe.Length, probe.SHA256 = 0, ""
	if status, _ := postSegment(t, srv.URL, probe, nil); status != 200 {
		t.Fatalf("probe during drain answered %d, want 200", status)
	}

	close(gate.release)
	released = true
	if err := <-ticked; err != nil {
		t.Fatal(err)
	}
	if status, _ := postSegment(t, srv.URL, m, payload); status != 200 {
		t.Fatal("fold after drain failed")
	}
}

// --- shipper ----------------------------------------------------------

// TestShipperShipsAndResumes: a shipper drains a spool, a fresh shipper
// process (same state file) re-ships nothing, and new shards written by a
// restarted collector ship incrementally.
func TestShipperShipsAndResumes(t *testing.T) {
	recs := genRecords(600, 17000, 5)
	spool := t.TempDir()
	writeSpool(t, spool, recs[:400], 100, false)

	p := newPlane(t, t.TempDir())
	s1 := newShipper(t, spool, "c-1", p.srv.URL, 2048)
	rep, err := s1.PollOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 400 || rep.LagBytes != 0 {
		t.Fatalf("first poll: %+v", rep)
	}
	if got := receiverStatus(t, p.srv.URL).Records; got != 400 {
		t.Fatalf("receiver records = %d, want 400", got)
	}

	// Simulated restart: a new shipper from the same checkpoint must ship
	// zero bytes.
	s2 := newShipper(t, spool, "c-1", p.srv.URL, 2048)
	rep, err = s2.PollOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 0 || rep.Bytes != 0 {
		t.Fatalf("restarted shipper re-shipped: %+v", rep)
	}
	if dup := p.counter("federation_recv_duplicates_total"); dup != 0 {
		t.Fatalf("receiver saw %d duplicates, want 0", dup)
	}

	// Collector restart: the spool resumes numbering, the shipper picks up
	// only the new shards.
	writeSpool(t, spool, recs[400:], 100, false)
	rep, err = s2.PollOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 200 {
		t.Fatalf("incremental poll records = %d, want 200", rep.Records)
	}
	if got := receiverStatus(t, p.srv.URL).Records; got != 600 {
		t.Fatalf("receiver records = %d, want 600", got)
	}

	st, err := s2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 6 || st.AckedBytes != st.SealedBytes || st.OldestUnshippedAgeSeconds != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DurableBytes != 0 {
		t.Fatalf("durable before any publish = %d, want 0", st.DurableBytes)
	}

	// A publish makes the shipped bytes durable; the next poll's probes
	// observe it.
	if _, err := p.recv.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.PollOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err = s2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DurableBytes != st.SealedBytes {
		t.Fatalf("durable after publish = %d, want %d", st.DurableBytes, st.SealedBytes)
	}
}

// failAfter injects transport failures after n successful requests.
type failAfter struct {
	mu sync.Mutex
	n  int
}

func (f *failAfter) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	ok := f.n > 0
	if ok {
		f.n--
	}
	f.mu.Unlock()
	if !ok {
		return nil, errors.New("injected network failure")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestShipperCrashMidStream: a shipper dying mid-shard must resume from
// its checkpoint without double-folding anything.
func TestShipperCrashMidStream(t *testing.T) {
	recs := genRecords(500, 17000, 5)
	spool := t.TempDir()
	writeSpool(t, spool, recs, 0, false)

	p := newPlane(t, t.TempDir())
	stateFile := filepath.Join(spool, "state.json")
	s1, err := NewShipper(ShipperConfig{
		SpoolDir: spool, CollectorID: "c-1", Target: p.srv.URL,
		StateFile: stateFile, SegmentBytes: 1024,
		MaxAttempts: 2, RetryBase: time.Millisecond,
		HTTPClient: &http.Client{Transport: &failAfter{n: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.PollOnce(context.Background()); err == nil {
		t.Fatal("shipper survived the injected crash")
	}
	mid := receiverStatus(t, p.srv.URL).Records
	if mid == 0 || mid == len(recs) {
		t.Fatalf("crash landed at %d records; want a genuine mid-stream point", mid)
	}

	s2, err := NewShipper(ShipperConfig{
		SpoolDir: spool, CollectorID: "c-1", Target: p.srv.URL,
		StateFile: stateFile, SegmentBytes: 1024,
		MaxAttempts: 4, RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.PollOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := receiverStatus(t, p.srv.URL)
	if st.Records != len(recs) {
		t.Fatalf("records after resume = %d, want %d (exactly once)", st.Records, len(recs))
	}
}

// TestGzipShardShipsWhole: gzip shards cannot be resumed mid-stream, so
// they ship as one segment regardless of the configured segment size.
func TestGzipShardShipsWhole(t *testing.T) {
	recs := genRecords(300, 17000, 3)
	spool := t.TempDir()
	writeSpool(t, spool, recs, 0, true)

	p := newPlane(t, t.TempDir())
	s := newShipper(t, spool, "c-gz", p.srv.URL, 256) // far below the shard size
	rep, err := s.PollOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 1 {
		t.Fatalf("gzip shard shipped as %d segments, want 1", rep.Segments)
	}
	if got := receiverStatus(t, p.srv.URL).Records; got != len(recs) {
		t.Fatalf("receiver records = %d, want %d", got, len(recs))
	}
}

// --- exactly-once across aggregator restart ---------------------------

// TestReceiverRestartExactlyOnce is the restart-equivalence proof: acked
// offsets beyond the last published checkpoint die with the aggregator,
// the recovered window excludes those records, shippers rewind on 409 and
// re-ship — and the final map is byte-identical to the offline build, with
// zero records lost or double-folded.
func TestReceiverRestartExactlyOnce(t *testing.T) {
	recs := genRecords(800, 17000, 6)
	spool := t.TempDir()
	storeDir := t.TempDir()
	writeSpool(t, spool, recs[:500], 250, false)

	p1 := newPlane(t, storeDir)
	stateFile := filepath.Join(spool, "state.json")
	mkShipper := func(target string) *Shipper {
		s, err := NewShipper(ShipperConfig{
			SpoolDir: spool, CollectorID: "c-1", Target: target,
			StateFile: stateFile, SegmentBytes: 4096,
			MaxAttempts: 4, RetryBase: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := mkShipper(p1.srv.URL)
	if _, err := s.PollOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Publish: the first 500 records become durable.
	if _, err := p1.recv.Tick(); err != nil {
		t.Fatal(err)
	}
	// Ship 300 more — acked but never published.
	writeSpool(t, spool, recs[500:], 250, false)
	if _, err := s.PollOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := receiverStatus(t, p1.srv.URL).Records; got != 800 {
		t.Fatalf("pre-crash records = %d, want 800", got)
	}

	// Aggregator crash: in-memory acks and window die; the store survives.
	p1.srv.Close()
	p2 := newPlane(t, storeDir)
	if got := p2.recv.Status().Records; got != 500 {
		t.Fatalf("recovered window has %d records, want the 500 published ones", got)
	}

	// A restarted shipper (same checkpoint, which claims 800 acked) must
	// converge: probes hit 409, rewind, re-ship the unpublished tail.
	s2 := mkShipper(p2.srv.URL)
	rep, err := s2.PollOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rewinds == 0 {
		t.Fatal("no rewind after aggregator restart; acks were silently trusted")
	}
	st := receiverStatus(t, p2.srv.URL)
	if st.Records != 800 {
		t.Fatalf("records after recovery = %d, want exactly 800 (no loss, no double-fold)", st.Records)
	}
	if _, err := p2.recv.Tick(); err != nil {
		t.Fatal(err)
	}
	if got, want := currentMapBytes(t, p2.store), offlineMap(t, recs); !bytes.Equal(got, want) {
		t.Fatal("federated map after restart diverges from the offline build")
	}
}

// TestInputModeSwitchStartsEmpty: a store published through one input
// adapter and restarted under the other starts from an empty window — the
// checkpoint's input positions mean nothing to the new input — and the
// first map it publishes equals a from-scratch build, with no record
// counted twice.
func TestInputModeSwitchStartsEmpty(t *testing.T) {
	recs := genRecords(600, 17000, 5)
	ctx := context.Background()
	localAggregator := func(t *testing.T, storeDir, spool string) *live.Aggregator {
		t.Helper()
		store, err := snapshot.Open(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := live.NewAggregator(live.Config{SpoolDir: spool, Inputs: testInputs(), Store: store})
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}

	t.Run("federation to local spool", func(t *testing.T) {
		storeDir, spool := t.TempDir(), t.TempDir()
		writeSpool(t, spool, recs, 100, false)
		p := newPlane(t, storeDir)
		if _, err := newShipper(t, spool, "c-1", p.srv.URL, 4096).PollOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := p.recv.Tick(); err != nil {
			t.Fatal(err)
		}
		p.srv.Close()

		agg := localAggregator(t, storeDir, spool)
		if got := agg.Status().Records; got != 0 {
			t.Fatalf("restarted window holds %d records, want 0", got)
		}
		res, err := agg.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Published || res.NewRecords != len(recs) || res.WindowRecords != len(recs) {
			t.Fatalf("first local tick: %+v, want all %d records read once", res, len(recs))
		}
		if !bytes.Equal(currentMapBytes(t, p.store), offlineMap(t, recs)) {
			t.Fatal("map after the switch diverges from a from-scratch build")
		}
	})

	t.Run("local spool to federation", func(t *testing.T) {
		storeDir, spool := t.TempDir(), t.TempDir()
		writeSpool(t, spool, recs, 100, false)
		if res, err := localAggregator(t, storeDir, spool).Tick(); err != nil || !res.Published {
			t.Fatalf("local tick: %+v err=%v", res, err)
		}

		p := newPlane(t, storeDir)
		if got := p.recv.Status().Records; got != 0 {
			t.Fatalf("restarted window holds %d records, want 0", got)
		}
		if _, err := newShipper(t, spool, "c-1", p.srv.URL, 4096).PollOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := p.recv.Tick(); err != nil {
			t.Fatal(err)
		}
		if got := p.recv.Status().Records; got != len(recs) {
			t.Fatalf("window holds %d records, want %d", got, len(recs))
		}
		if !bytes.Equal(currentMapBytes(t, p.store), offlineMap(t, recs)) {
			t.Fatal("map after the switch diverges from a from-scratch build")
		}
	})
}

// --- concurrency ------------------------------------------------------

// TestConcurrentShippers runs three shippers and a publishing tick loop
// concurrently against one receiver; run under -race in CI. Every record
// must fold exactly once.
func TestConcurrentShippers(t *testing.T) {
	total := 900
	all := genRecords(total, 17000, 5)
	p := newPlane(t, t.TempDir())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		spool := t.TempDir()
		recs := all[i*total/3 : (i+1)*total/3]
		writeSpool(t, spool, recs, 75, false)
		s, err := NewShipper(ShipperConfig{
			SpoolDir: spool, CollectorID: fmt.Sprintf("c-%d", i), Target: p.srv.URL,
			SegmentBytes: 1024, Interval: 5 * time.Millisecond,
			MaxAttempts: 6, RetryBase: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); s.Run(ctx) }()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			if _, err := p.recv.Tick(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		st := receiverStatus(t, p.srv.URL)
		if st.Records == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("receiver stuck at %d/%d records", st.Records, total)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	st := receiverStatus(t, p.srv.URL)
	if st.Records != total {
		t.Fatalf("final records = %d, want %d", st.Records, total)
	}
	per := st.Sources
	if len(per) != 3 {
		t.Fatalf("sources = %d, want 3", len(per))
	}
	sum := 0
	for _, n := range per {
		sum += n
	}
	if sum != total {
		t.Fatalf("per-source sum = %d, want %d", sum, total)
	}
}

package rum

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"strings"
	"testing"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/logio"
	"cellspot/internal/netaddr"
	"cellspot/internal/obs"
)

func rec(ip, conn string) beacon.Record {
	return beacon.Record{
		Time: time.Date(2016, 12, 15, 12, 0, 0, 0, time.UTC),
		IP:   netip.MustParseAddr(ip),
		Conn: conn, Browser: "Chrome Mobile", PageLoadMS: 900,
	}
}

func TestCollectorEndToEnd(t *testing.T) {
	col := NewCollector()
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL, BatchSize: 3}

	records := []beacon.Record{
		rec("10.1.1.5", "cellular"),
		rec("10.1.1.6", "cellular"),
		rec("10.1.1.7", "wifi"),
		rec("10.1.1.8", ""), // no API data
		rec("10.2.2.5", "wifi"),
	}
	if err := cl.Post(context.Background(), records); err != nil {
		t.Fatal(err)
	}
	st, err := cl.FetchStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Received != 5 || st.Rejected != 0 || st.Blocks != 2 {
		t.Errorf("stats = %+v", st)
	}
	agg := col.Snapshot()
	r, ok := agg.Ratio(netaddr.V4Block(10, 1, 1))
	if !ok || r != 2.0/3 {
		t.Errorf("ratio = %g,%v", r, ok)
	}
	if tot := agg.Totals(); tot.Hits != 5 || tot.API != 4 || tot.Cell != 2 {
		t.Errorf("totals = %+v", tot)
	}
}

func TestCollectorRejectsGarbage(t *testing.T) {
	col := NewCollector()
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/beacons", "application/x-ndjson",
		strings.NewReader("{not json}\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage returned %d", resp.StatusCode)
	}
	// Bad connection type.
	resp, err = http.Post(srv.URL+"/v1/beacons", "application/x-ndjson",
		strings.NewReader(`{"ip":"1.2.3.4","conn":"quantum"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad conn returned %d", resp.StatusCode)
	}
	// Missing IP.
	resp, err = http.Post(srv.URL+"/v1/beacons", "application/x-ndjson",
		strings.NewReader(`{"conn":"wifi"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing IP returned %d", resp.StatusCode)
	}
	if st := col.Stats(); st.Rejected != 3 || st.Received != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCollectorMethodRouting(t *testing.T) {
	srv := httptest.NewServer(NewCollector().Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/beacons")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET /v1/beacons accepted")
	}
	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path returned %d", resp.StatusCode)
	}
}

func TestCollectorSpool(t *testing.T) {
	dir := t.TempDir()
	sp := logio.NewSpool(dir, "rum", false, 0)
	col := NewCollector(WithSpool(sp))
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	cl := &Client{BaseURL: srv.URL}
	if err := cl.Post(context.Background(), []beacon.Record{
		rec("9.9.9.1", "cellular"), rec("9.9.9.2", "wifi"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	// The spool replays into an equal aggregate.
	replay := beacon.NewAggregate()
	st, err := logio.DecodeSpool(dir, "rum", false, func(r beacon.Record) error {
		replay.AddRecord(r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 {
		t.Fatalf("spool records = %d", st.Records)
	}
	live := col.Snapshot()
	if live.Blocks() != replay.Blocks() || live.Totals() != replay.Totals() {
		t.Error("spool replay diverges from live aggregate")
	}
}

func TestClientBatching(t *testing.T) {
	var posts int
	col := NewCollector()
	h := col.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts++
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL, BatchSize: 2}
	var recs []beacon.Record
	for i := 0; i < 5; i++ {
		recs = append(recs, rec("8.8.8.8", "wifi"))
	}
	if err := cl.Post(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	if posts != 3 { // 2+2+1
		t.Errorf("posts = %d, want 3", posts)
	}
}

func TestClientErrorPropagation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}
	err := cl.Post(context.Background(), []beacon.Record{rec("1.1.1.1", "wifi")})
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Errorf("err = %v", err)
	}
	if _, err := cl.FetchStats(context.Background()); err == nil {
		t.Error("FetchStats swallowed server error")
	}
}

func TestCollectorAuth(t *testing.T) {
	col := NewCollector(WithAuthToken("s3cret"))
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	// No token: rejected.
	noAuth := &Client{BaseURL: srv.URL}
	if err := noAuth.Post(context.Background(), []beacon.Record{rec("1.1.1.1", "wifi")}); err == nil {
		t.Error("unauthenticated post accepted")
	}
	// Wrong token: rejected.
	wrong := &Client{BaseURL: srv.URL, AuthToken: "nope"}
	if err := wrong.Post(context.Background(), []beacon.Record{rec("1.1.1.1", "wifi")}); err == nil {
		t.Error("wrong token accepted")
	}
	// Correct token: accepted.
	ok := &Client{BaseURL: srv.URL, AuthToken: "s3cret"}
	if err := ok.Post(context.Background(), []beacon.Record{rec("1.1.1.1", "wifi")}); err != nil {
		t.Fatal(err)
	}
	// Stats stay open.
	if _, err := noAuth.FetchStats(context.Background()); err != nil {
		t.Errorf("stats require auth: %v", err)
	}
	if st := col.Stats(); st.Received != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCollectorAuthStatusCode pins the rejection status itself: a missing
// or malformed token must yield exactly 401, not just "some client error".
func TestCollectorAuthStatusCode(t *testing.T) {
	col := NewCollector(WithAuthToken("s3cret"))
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	body := `{"ip":"1.2.3.4","conn":"wifi"}` + "\n"
	for name, apply := range map[string]func(*http.Request){
		"no header":     func(*http.Request) {},
		"wrong token":   func(r *http.Request) { r.Header.Set("Authorization", "Bearer nope") },
		"not bearer":    func(r *http.Request) { r.Header.Set("Authorization", "Basic s3cret") },
		"empty bearer":  func(r *http.Request) { r.Header.Set("Authorization", "Bearer ") },
		"token as body": func(r *http.Request) { r.Header.Set("X-Token", "s3cret") },
	} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/beacons", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		apply(req)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s: status = %d, want 401", name, resp.StatusCode)
		}
	}
	// Rejected posts must not leak records into the aggregate.
	if st := col.Stats(); st.Received != 0 || st.Blocks != 0 {
		t.Errorf("stats after unauthorized posts = %+v", st)
	}
}

func TestCollectorMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	col := NewCollector(
		WithSpool(logio.NewSpool(dir, "rum", false, 0)),
		WithAuthToken("s3cret"),
		WithMetrics(reg),
	)
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	cl := &Client{BaseURL: srv.URL, AuthToken: "s3cret"}
	if err := cl.Post(context.Background(), []beacon.Record{
		rec("10.1.1.5", "cellular"), rec("10.1.1.6", "wifi"), rec("10.2.2.5", "wifi"),
	}); err != nil {
		t.Fatal(err)
	}
	// One garbage post (counted rejected) and one unauthorized post.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/beacons", strings.NewReader("{broken\n"))
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := (&Client{BaseURL: srv.URL}).Post(context.Background(), []beacon.Record{rec("1.1.1.1", "wifi")}); err == nil {
		t.Fatal("unauthorized post accepted")
	}

	checks := map[string]uint64{
		"rum_records_received_total": 3,
		"rum_records_rejected_total": 1,
		"rum_unauthorized_total":     1,
		"rum_spooled_records_total":  3,
	}
	for name, want := range checks {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("rum_blocks", "").Value(); got != 2 {
		t.Errorf("rum_blocks = %d, want 2", got)
	}
}

func TestEmptyBatch(t *testing.T) {
	col := NewCollector()
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/beacons", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("empty batch returned %d", resp.StatusCode)
	}
}

// TestCollectorRejectsOversizeFields: a record whose browser or rat is
// over beacon.MaxFieldBytes is refused with 400 and nothing is spooled. A POST of
// 2.85 MB of '<' in browser once spooled a line of about 17 MB, which no
// federation segment can carry.
func TestCollectorRejectsOversizeFields(t *testing.T) {
	dir := t.TempDir()
	col := NewCollector(WithSpool(logio.NewSpool(dir, "rum", false, 0)))
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()
	post := func(field, value string) int {
		t.Helper()
		body := `{"ts":"2016-12-15T12:00:00Z","ip":"9.9.9.1","conn":"cellular","` + field + `":"` + value + `"}` + "\n"
		resp, err := http.Post(srv.URL+"/v1/beacons", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, field := range []string{"browser", "rat"} {
		if code := post(field, strings.Repeat("<", 2_850_000)); code != http.StatusBadRequest {
			t.Fatalf("hostile %s: status %d, want 400", field, code)
		}
		if code := post(field, strings.Repeat("a", beacon.MaxFieldBytes+1)); code != http.StatusBadRequest {
			t.Fatalf("%s one byte over the cap: status %d, want 400", field, code)
		}
	}
	if code := post("browser", strings.Repeat("<", beacon.MaxFieldBytes)); code != http.StatusOK {
		t.Fatalf("browser at the cap: status %d, want 200", code)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	var got []beacon.Record
	if _, err := logio.DecodeSpool(dir, "rum", false, func(r beacon.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Browser) != beacon.MaxFieldBytes {
		t.Fatalf("spooled %d records, want only the one at the cap", len(got))
	}
}

// referenceHandle is the collector's POST handling as a plain
// encoding/json decoder loop over the capped body, spooling each record
// through an encoding/json encoder: what the collector must answer and
// spool for body, whichever path it takes.
func referenceHandle(body []byte) (status int, resp string, spool []byte) {
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/beacons", bytes.NewReader(body))
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, MaxBodyBytes))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for n := 0; ; n++ {
		var r beacon.Record
		err := dec.Decode(&r)
		if errors.Is(err, io.EOF) {
			fmt.Fprintf(w, `{"accepted":%d}`+"\n", n)
			return w.Code, w.Body.String(), buf.Bytes()
		}
		if err == nil {
			if verr := r.Validate(); verr != nil {
				http.Error(w, fmt.Sprintf("invalid record %d: %v", n, verr), http.StatusBadRequest)
				return w.Code, w.Body.String(), nil
			}
		} else {
			http.Error(w, fmt.Sprintf("bad record after %d: %v", n, err), http.StatusBadRequest)
			return w.Code, w.Body.String(), nil
		}
		if err := enc.Encode(r); err != nil {
			panic(err)
		}
	}
}

// TestCollectorMatchesDecoderLoop: over canonical bodies, which take the
// fast path, and bodies that fall back to encoding/json, the collector
// answers with the status and body the reference decoder loop gives and
// spools the bytes its encoder writes.
func TestCollectorMatchesDecoderLoop(t *testing.T) {
	var canon []byte
	for _, r := range []beacon.Record{
		rec("10.1.1.5", "cellular"), rec("10.1.1.6", "wifi"), rec("2001:db8::7", ""),
		{Time: time.Date(2016, 12, 1, 0, 0, 0, 5, time.UTC), IP: netip.MustParseAddr("10.0.0.1"), Conn: "cellular", RAT: "5g", Browser: "Other", PageLoadMS: -3},
	} {
		line, err := beacon.AppendRecord(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		canon = append(append(canon, line...), '\n')
	}
	first := canon[:bytes.IndexByte(canon, '\n')+1]
	bogus := []byte(`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.9","conn":"bogus","browser":"x","plt_ms":1}` + "\n")
	noIP := []byte(`{"ts":"2016-12-01T00:00:00Z","browser":"x","conn":"bogus"}` + "\n")
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// Records past MaxBodyBytes: the read fails mid-record.
	var huge []byte
	for len(huge) <= MaxBodyBytes {
		huge = append(huge, canon...)
	}
	bodies := map[string][]byte{
		"canonical":          canon,
		"no final newline":   bytes.TrimSuffix(canon, []byte("\n")),
		"empty":              nil,
		"blank line":         []byte("\n"),
		"crlf":               bytes.ReplaceAll(canon, []byte("\n"), []byte("\r\n")),
		"split object":       cat(first[:40], []byte("\n"), first[40:], canon),
		"two on one line":    cat(bytes.TrimSuffix(first, []byte("\n")), canon),
		"trailing garbage":   cat(canon, []byte("}garbage\n")),
		"invalid canonical":  cat(canon, bogus, canon),
		"invalid fallback":   cat(canon, noIP),
		"escaped html":       cat(canon, []byte(`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.2","browser":"<b>","plt_ms":1}`+"\n")),
		"reordered":          cat([]byte(`{"ip":"10.0.0.2","ts":"2016-12-01T00:00:00Z","browser":"x","plt_ms":1}`+"\n"), canon),
		"over max body":      huge,
		"bad then oversized": cat([]byte("{nope}\n"), huge),
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			col := NewCollector(WithSpool(logio.NewSpool(dir, "rum", false, 0)))
			w := httptest.NewRecorder()
			col.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/beacons", bytes.NewReader(body)))
			if err := col.Close(); err != nil {
				t.Fatal(err)
			}
			var spooled []byte
			files, err := logio.SpoolFiles(dir, "rum")
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				b, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				spooled = append(spooled, b...)
			}
			status, resp, want := referenceHandle(body)
			if w.Code != status || w.Body.String() != resp {
				t.Fatalf("answer %d %q, reference %d %q", w.Code, w.Body.String(), status, resp)
			}
			if !bytes.Equal(spooled, want) {
				t.Fatalf("spooled %q, reference %q", spooled, want)
			}
		})
	}
}

package history

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"

	"cellspot/internal/cellmap"
	"cellspot/internal/snapshot"
)

func mustAddr(t testing.TB, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// historyServer publishes n distinguishable generations and mounts the
// history service with the newest as current.
func historyServer(t testing.TB, n int) (*httptest.Server, *snapshot.Store, *Index, []*cellmap.Map) {
	t.Helper()
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var maps []*cellmap.Map
	for i := 0; i < n; i++ {
		es := baseEntries()
		es[0].ratio = 0.1 * float64(i+1)
		es[0].asn = uint32(100 + i)
		if i%2 == 1 { // odd generations carry the RAT column
			es[0].rat = []float64{0.2, 0.7, 0.1}
		}
		publishGen(t, store, fmt.Sprintf("2016-%02d", i+1), es, i == 0)
		maps = append(maps, mkMap(t, fmt.Sprintf("2016-%02d", i+1), es))
	}
	ix, err := New(Config{Store: store, MaxResident: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := cellmap.NewSwappable(maps[n-1], uint64(n))
	mux := http.NewServeMux()
	cellmap.Mount(mux, src, ix, nil)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, store, ix, maps
}

// TestGenLookupByteIdentical pins the acceptance criterion: answering
// /v1/lookup?ip=X&gen=N from history is byte-for-byte what a node serving
// generation N as current would answer.
func TestGenLookupByteIdentical(t *testing.T) {
	srv, _, _, maps := historyServer(t, 4)
	for seq := 1; seq <= 4; seq++ {
		refMux := http.NewServeMux()
		cellmap.MountSource(refMux, cellmap.NewSwappable(maps[seq-1], uint64(seq)))
		ref := httptest.NewServer(refMux)
		for _, ip := range []string{"10.0.0.9", "2001:db8::42", "192.0.2.1"} {
			code, got := get(t, srv.URL+fmt.Sprintf("/v1/lookup?ip=%s&gen=%d", ip, seq))
			refCode, want := get(t, ref.URL+"/v1/lookup?ip="+ip)
			if code != refCode || string(got) != string(want) {
				t.Errorf("gen %d ip %s: history (%d) %q vs current (%d) %q",
					seq, ip, code, got, refCode, want)
			}
		}
		ref.Close()
	}
}

func TestGenLookupErrors(t *testing.T) {
	srv, store, _, _ := historyServer(t, 4)
	if _, err := store.Prune(2); err != nil {
		t.Fatal(err)
	}

	// Pruned generation: 404 with the oldest retained seq in the body.
	code, body := get(t, srv.URL+"/v1/lookup?ip=10.0.0.9&gen=1")
	if code != http.StatusNotFound {
		t.Fatalf("pruned gen: status %d, want 404 (%s)", code, body)
	}
	var nre cellmap.NotRetainedError
	if err := json.Unmarshal(body, &nre); err != nil {
		t.Fatalf("404 body is not JSON: %v (%s)", err, body)
	}
	if nre.OldestGeneration != 3 || !strings.Contains(nre.Error, "oldest available is 3") {
		t.Errorf("404 body = %+v", nre)
	}

	// Malformed and zero gen values are client errors.
	for _, g := range []string{"abc", "0", "-1", "1.5"} {
		code, body := get(t, srv.URL+"/v1/lookup?ip=10.0.0.9&gen="+g)
		if code != http.StatusBadRequest {
			t.Errorf("gen=%s: status %d, want 400 (%s)", g, code, body)
		}
	}

	// The current-map path is unaffected by pruning.
	code, body = get(t, srv.URL+"/v1/lookup?ip=10.0.0.9")
	if code != http.StatusOK {
		t.Fatalf("current lookup: status %d (%s)", code, body)
	}
	var lr cellmap.LookupResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Generation != 4 || lr.ASN != 103 {
		t.Errorf("current lookup = %+v", lr)
	}
}

func TestBatchRejectsGenOnHistoryMount(t *testing.T) {
	srv, _, _, _ := historyServer(t, 2)
	resp, err := http.Post(srv.URL+"/v1/lookup/batch?gen=1", "application/json",
		strings.NewReader(`{"ips":["10.0.0.9"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with gen: status %d, want 400", resp.StatusCode)
	}
	var e cellmap.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "gen parameter") {
		t.Errorf("400 body = %+v (%v)", e, err)
	}

	// A plain batch still works and answers from the current generation.
	resp2, err := http.Post(srv.URL+"/v1/lookup/batch", "application/json",
		strings.NewReader(`{"ips":["10.0.0.9","192.0.2.1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var br cellmap.BatchResponse
	if err := json.NewDecoder(resp2.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Generation != 2 || len(br.Results) != 2 {
		t.Errorf("batch = %+v", br)
	}
}

func TestHistoryEndpoint(t *testing.T) {
	srv, _, _, _ := historyServer(t, 4)
	code, body := get(t, srv.URL+"/v1/history?ip=10.0.0.9")
	if code != http.StatusOK {
		t.Fatalf("history: status %d (%s)", code, body)
	}
	var tl TimelineResponse
	if err := json.Unmarshal(body, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.Addr != "10.0.0.9" || tl.Examined != 4 || tl.OldestGen != 1 || tl.NewestGen != 4 {
		t.Errorf("timeline envelope = %+v", tl)
	}
	// The fixture changes the ASN every generation, so every generation
	// opens a change-point, and RAT rides along on odd generations.
	if len(tl.Changes) != 4 {
		t.Fatalf("changes = %+v", tl.Changes)
	}
	for i, c := range tl.Changes {
		if c.Generation != uint64(i+1) || c.ASN != uint32(100+i) {
			t.Errorf("change[%d] = %+v", i, c)
		}
		if wantRAT := i%2 == 1; (c.RAT != nil) != wantRAT {
			t.Errorf("change[%d] RAT presence = %v, want %v", i, c.RAT != nil, wantRAT)
		}
	}

	// Missing and malformed ip are client errors.
	if code, _ := get(t, srv.URL+"/v1/history"); code != http.StatusBadRequest {
		t.Errorf("missing ip: status %d", code)
	}
	if code, _ := get(t, srv.URL+"/v1/history?ip=zz"); code != http.StatusBadRequest {
		t.Errorf("bad ip: status %d", code)
	}
}

func TestGenerationsEndpoint(t *testing.T) {
	srv, _, _, _ := historyServer(t, 3)
	code, body := get(t, srv.URL+"/v1/generations")
	if code != http.StatusOK {
		t.Fatalf("generations: status %d", code)
	}
	var resp struct {
		Generations []GenInfo `json:"generations"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Generations) != 3 {
		t.Fatalf("generations = %+v", resp.Generations)
	}
	for i, g := range resp.Generations {
		if g.Seq != uint64(i+1) || g.Meta.Period != fmt.Sprintf("2016-%02d", i+1) {
			t.Errorf("generation[%d] = %+v", i, g)
		}
	}
	// Generation 1 was published without a sidecar: the fallback still
	// fills entries and period from the map header.
	if resp.Generations[0].Meta.Entries != 2 {
		t.Errorf("fallback entries = %+v", resp.Generations[0].Meta)
	}
}

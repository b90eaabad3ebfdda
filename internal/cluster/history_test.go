package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cellspot/internal/cellmap"
	"cellspot/internal/history"
	"cellspot/internal/obs"
	"cellspot/internal/snapshot"
)

// historyFixture is one shard node with a two-generation snapshot store:
// generation 1 is the old dataset, generation 2 the current one, with
// every shared prefix's metadata differing so answers are attributable.
type historyFixture struct {
	store *snapshot.Store
	ix    *history.Index
	sw    *cellmap.Swappable
	srv   *httptest.Server
	ring  *Ring
}

func newHistoryFixture(t *testing.T, shards, shardID int) *historyFixture {
	t.Helper()
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	publish := func(m *cellmap.Map) {
		t.Helper()
		if _, err := store.Publish(func(dir string) error {
			return history.WriteGeneration(dir, m, "", "")
		}); err != nil {
			t.Fatal(err)
		}
	}
	m1 := mkMap(t, "2016-12", genOneEntries())
	m2 := mkMap(t, "2017-01", genTwoEntries())
	publish(m1)
	publish(m2)

	ix, err := history.New(history.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing(shards, DefaultVNodes)
	sw := cellmap.NewSwappable(m2, 2)
	view, err := NewShardView(sw, ring, shardID)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	cellmap.Mount(mux, sw, ix, view)
	view.MountHealth(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &historyFixture{store: store, ix: ix, sw: sw, srv: srv, ring: ring}
}

func getBody(t *testing.T, url string) (int, []byte) {
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

// TestGatewayGenRoutesAroundCache pins the cache-bypass invariant: a gen=N
// lookup is never answered from the response cache and never stored into
// it, in either order relative to current-generation traffic.
func TestGatewayGenRoutesAroundCache(t *testing.T) {
	fx := newHistoryFixture(t, 1, 0)
	gw, err := NewGateway(GatewayConfig{
		Topology:  Topology{Format: TopologyFormat, Shards: []ShardSpec{{Replicas: []string{fx.srv.URL}}}},
		Registry:  obs.NewRegistry(),
		CacheSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.CheckNow(context.Background())
	gmux := http.NewServeMux()
	gw.Mount(gmux)
	gsrv := httptest.NewServer(gmux)
	defer gsrv.Close()

	ip := "10.0.3.9" // covered in both generations with differing metadata
	lookup := func(url string) cellmap.LookupResponse {
		t.Helper()
		code, body := getBody(t, url)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", url, code, body)
		}
		var lr cellmap.LookupResponse
		if err := json.Unmarshal(body, &lr); err != nil {
			t.Fatal(err)
		}
		return lr
	}

	// 1. A gen=1 lookup on a cold cache answers from generation 1.
	old := lookup(gsrv.URL + "/v1/lookup?ip=" + ip + "&gen=1")
	if old.Generation != 1 || old.Ratio != 0.28 {
		t.Fatalf("gen=1 answer = %+v", old)
	}
	// 2. If that answer had been cached, this current lookup would serve
	// generation-1 data. It must see generation 2.
	cur := lookup(gsrv.URL + "/v1/lookup?ip=" + ip)
	if cur.Generation != 2 || cur.Ratio != 0.68 {
		t.Fatalf("current answer after gen lookup = %+v", cur)
	}
	// 3. Now the cache holds the current answer; a gen=1 lookup must still
	// bypass the cache read and answer from generation 1.
	again := lookup(gsrv.URL + "/v1/lookup?ip=" + ip + "&gen=1")
	if again.Generation != 1 || again.Ratio != 0.28 {
		t.Fatalf("gen=1 after caching current = %+v", again)
	}

	// Malformed gen fails at the gateway.
	for _, g := range []string{"0", "x"} {
		if code, _ := getBody(t, gsrv.URL+"/v1/lookup?ip="+ip+"&gen="+g); code != http.StatusBadRequest {
			t.Errorf("gen=%s: status %d, want 400", g, code)
		}
	}
	// A pruned/unknown generation's 404 is proxied through, body intact.
	code, body := getBody(t, gsrv.URL+"/v1/lookup?ip="+ip+"&gen=99")
	if code != http.StatusNotFound {
		t.Fatalf("gen=99: status %d (%s)", code, body)
	}
	var nre cellmap.NotRetainedError
	if err := json.Unmarshal(body, &nre); err != nil || nre.OldestGeneration != 1 {
		t.Errorf("proxied 404 body = %s (%v)", body, err)
	}

	// A batch with a gen parameter is rejected at the gateway edge.
	resp, err := http.Post(gsrv.URL+"/v1/lookup/batch?gen=1", "application/json",
		strings.NewReader(`{"ips":["`+ip+`"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("batch with gen: status %d, want 400", resp.StatusCode)
	}
}

func TestGatewayHistoryForwarding(t *testing.T) {
	fx := newHistoryFixture(t, 1, 0)
	gw, err := NewGateway(GatewayConfig{
		Topology: Topology{Format: TopologyFormat, Shards: []ShardSpec{{Replicas: []string{fx.srv.URL}}}},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.CheckNow(context.Background())
	gmux := http.NewServeMux()
	gw.Mount(gmux)
	gsrv := httptest.NewServer(gmux)
	defer gsrv.Close()

	// 10.1.0.9 exists only in generation 2: the timeline shows the block
	// appearing.
	code, body := getBody(t, gsrv.URL+"/v1/history?ip=10.1.0.9")
	if code != http.StatusOK {
		t.Fatalf("history: status %d (%s)", code, body)
	}
	var tl history.TimelineResponse
	if err := json.Unmarshal(body, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.Examined != 2 || len(tl.Changes) != 2 {
		t.Fatalf("timeline = %+v", tl)
	}
	if tl.Changes[0].Cellular || !tl.Changes[1].Cellular || tl.Changes[1].Generation != 2 || tl.Changes[1].ASN != 300 {
		t.Errorf("changes = %+v", tl.Changes)
	}

	if code, _ := getBody(t, gsrv.URL+"/v1/history"); code != http.StatusBadRequest {
		t.Errorf("missing ip: status %d, want 400", code)
	}
}

// TestShardHistoryOwnership: history routes refuse foreign addresses with
// 421 before touching the history index, like every shard route.
func TestShardHistoryOwnership(t *testing.T) {
	fx := newHistoryFixture(t, 3, 0)
	foreign := addrOwnedBy(t, fx.ring, 1)
	for _, path := range []string{
		"/v1/lookup?ip=" + foreign.String() + "&gen=1",
		"/v1/history?ip=" + foreign.String(),
	} {
		code, body := getBody(t, fx.srv.URL+path)
		if code != http.StatusMisdirectedRequest {
			t.Errorf("%s: status %d, want 421 (%s)", path, code, body)
		}
	}
	owned := addrOwnedBy(t, fx.ring, 0)
	code, body := getBody(t, fx.srv.URL+"/v1/lookup?ip="+owned.String()+"&gen=1")
	if code != http.StatusOK {
		t.Errorf("owned gen lookup: status %d (%s)", code, body)
	}
	var lr cellmap.LookupResponse
	if err := json.Unmarshal(body, &lr); err != nil || lr.Generation != 1 {
		t.Errorf("owned gen lookup = %s (%v)", body, err)
	}
	code, body = getBody(t, fx.srv.URL+"/v1/history?ip="+owned.String())
	if code != http.StatusOK {
		t.Errorf("owned history: status %d (%s)", code, body)
	}
	// /v1/generations rides along on shard nodes.
	code, body = getBody(t, fx.srv.URL+"/v1/generations")
	if code != http.StatusOK {
		t.Fatalf("generations: status %d", code)
	}
	var gens struct {
		Generations []history.GenInfo `json:"generations"`
	}
	if err := json.Unmarshal(body, &gens); err != nil || len(gens.Generations) != 2 {
		t.Errorf("generations body = %s (%v)", body, err)
	}
}

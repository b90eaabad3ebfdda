package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"

	"cellspot/internal/cellmap"
	"cellspot/internal/history"
	"cellspot/internal/obs/httpmw"
	"cellspot/internal/snapshot"
)

// Configuration columns of the route matrix: the four ways a map-serving
// node mounts its routes.
const (
	cfgPlain = iota
	cfgHistory
	cfgShard
	cfgShardHistory
	numCfgs
)

var cfgNames = [numCfgs]string{"plain", "history", "shard", "shard+history"}

// routeMounts builds each configuration's routes over the same source,
// history index and shard view.
var routeMounts = [numCfgs]func(r httpmw.Router, src cellmap.Source, ix *history.Index, v *ShardView){
	cfgPlain: func(r httpmw.Router, src cellmap.Source, _ *history.Index, _ *ShardView) {
		cellmap.MountSource(r, src)
	},
	cfgHistory: func(r httpmw.Router, src cellmap.Source, ix *history.Index, _ *ShardView) {
		cellmap.Mount(r, src, ix, nil)
	},
	cfgShard: func(r httpmw.Router, _ cellmap.Source, _ *history.Index, v *ShardView) { MountShard(r, v) },
	cfgShardHistory: func(r httpmw.Router, src cellmap.Source, ix *history.Index, v *ShardView) {
		cellmap.Mount(r, src, ix, v)
		v.MountHealth(r)
	},
}

// publishMaps publishes each map as the store's next generation through
// the writer the live aggregator uses.
func publishMaps(t *testing.T, store *snapshot.Store, maps ...*cellmap.Map) {
	t.Helper()
	for _, m := range maps {
		if _, err := store.Publish(func(dir string) error {
			return history.WriteGeneration(dir, m, "", "")
		}); err != nil {
			t.Fatal(err)
		}
	}
}

type routeAnswer struct {
	status int
	ctype  string
	body   []byte
}

func doRoute(t *testing.T, method, url, body, deadline string) routeAnswer {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if deadline != "" {
		req.Header.Set(DeadlineHeader, deadline)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return routeAnswer{resp.StatusCode, resp.Header.Get("Content-Type"), raw}
}

// TestRouteMatrix drives every serving route against the four node
// configurations — plain, history, shard, shard+history — over one
// two-generation fixture. It pins each status code and Content-Type, and
// requires every configuration that answers a request with the same status
// to answer it byte for byte the same: an owned lookup on a shard is the
// plain lookup, and a gen=N answer on a shard with history is the history
// node's answer.
func TestRouteMatrix(t *testing.T) {
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m1 := mkMap(t, "2016-12", genOneEntries())
	m2 := mkMap(t, "2017-01", genTwoEntries())
	publishMaps(t, store, m1, m2)
	ix, err := history.New(history.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	sw := cellmap.NewSwappable(m2, 2)
	// The view serves the shard owning a block covered in both
	// generations, so owned answers tell the generations apart.
	ring := NewRing(2, DefaultVNodes)
	ownedAddr := netip.MustParseAddr("10.0.3.9")
	id := ring.Owner(ownedAddr)
	view, err := NewShardView(sw, ring, id)
	if err != nil {
		t.Fatal(err)
	}
	var urls [numCfgs]string
	for c, mount := range routeMounts {
		mux := http.NewServeMux()
		mount(mux, sw, ix, view)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls[c] = srv.URL
	}
	// ref serves generation 1 as current: what a gen=1 answer must equal.
	refMux := http.NewServeMux()
	cellmap.MountSource(refMux, cellmap.NewSwappable(m1, 1))
	ref := httptest.NewServer(refMux)
	t.Cleanup(ref.Close)

	owned, foreign := ownedAddr.String(), addrOwnedBy(t, ring, 1-id).String()
	expired := strconv.FormatInt(time.Now().Add(-time.Minute).UnixMicro(), 10)
	overLimit := make([]string, cellmap.DefaultBatchLimit+1)
	for i := range overLimit {
		overLimit[i] = fmt.Sprintf("%q", owned)
	}
	const (
		ok  = http.StatusOK
		bad = http.StatusBadRequest
		nf  = http.StatusNotFound
		mis = http.StatusMisdirectedRequest
		big = http.StatusRequestEntityTooLarge
		gto = http.StatusGatewayTimeout
	)
	cases := []struct {
		name, method, path, body, deadline string
		want                               [numCfgs]int // plain, history, shard, shard+history
		refPath                            string       // when set, 200 answers must equal ref's answer here
	}{
		{name: "lookup-owned", method: "GET", path: "/v1/lookup?ip=" + owned, want: [numCfgs]int{ok, ok, ok, ok}},
		{name: "lookup-foreign", method: "GET", path: "/v1/lookup?ip=" + foreign, want: [numCfgs]int{ok, ok, mis, mis}},
		{name: "lookup-missing-ip", method: "GET", path: "/v1/lookup", want: [numCfgs]int{bad, bad, bad, bad}},
		{name: "lookup-bad-ip", method: "GET", path: "/v1/lookup?ip=10.0.0", want: [numCfgs]int{bad, bad, bad, bad}},
		{name: "lookup-expired-deadline", method: "GET", path: "/v1/lookup?ip=" + owned, deadline: expired, want: [numCfgs]int{ok, ok, gto, gto}},
		{name: "lookup-gen", method: "GET", path: "/v1/lookup?ip=" + owned + "&gen=1", want: [numCfgs]int{bad, ok, bad, ok}, refPath: "/v1/lookup?ip=" + owned},
		{name: "lookup-gen-current", method: "GET", path: "/v1/lookup?ip=" + owned + "&gen=2", want: [numCfgs]int{bad, ok, bad, ok}},
		{name: "lookup-gen-not-retained", method: "GET", path: "/v1/lookup?ip=" + owned + "&gen=99", want: [numCfgs]int{bad, nf, bad, nf}},
		{name: "lookup-gen-malformed", method: "GET", path: "/v1/lookup?ip=" + owned + "&gen=x", want: [numCfgs]int{bad, bad, bad, bad}},
		{name: "lookup-gen-zero", method: "GET", path: "/v1/lookup?ip=" + owned + "&gen=0", want: [numCfgs]int{bad, bad, bad, bad}},
		{name: "lookup-gen-foreign", method: "GET", path: "/v1/lookup?ip=" + foreign + "&gen=1", want: [numCfgs]int{bad, ok, mis, mis}},
		{name: "batch-owned", method: "POST", path: "/v1/lookup/batch", body: `{"ips":["` + owned + `","10.0.3.200"]}`, want: [numCfgs]int{ok, ok, ok, ok}},
		{name: "batch-foreign", method: "POST", path: "/v1/lookup/batch", body: `{"ips":["` + owned + `","` + foreign + `"]}`, want: [numCfgs]int{ok, ok, mis, mis}},
		{name: "batch-gen", method: "POST", path: "/v1/lookup/batch?gen=1", body: `{"ips":["` + owned + `"]}`, want: [numCfgs]int{bad, bad, bad, bad}},
		{name: "batch-empty", method: "POST", path: "/v1/lookup/batch", body: `{"ips":[]}`, want: [numCfgs]int{bad, bad, bad, bad}},
		{name: "batch-malformed", method: "POST", path: "/v1/lookup/batch", body: `{"ips":`, want: [numCfgs]int{bad, bad, bad, bad}},
		{name: "batch-bad-ip", method: "POST", path: "/v1/lookup/batch", body: `{"ips":["` + owned + `","zz"]}`, want: [numCfgs]int{bad, bad, bad, bad}},
		{name: "batch-over-limit", method: "POST", path: "/v1/lookup/batch", body: `{"ips":[` + strings.Join(overLimit, ",") + `]}`, want: [numCfgs]int{big, big, big, big}},
		{name: "batch-expired-deadline", method: "POST", path: "/v1/lookup/batch", body: `{"ips":["` + owned + `"]}`, deadline: expired, want: [numCfgs]int{ok, ok, gto, gto}},
		{name: "history-owned", method: "GET", path: "/v1/history?ip=" + owned, want: [numCfgs]int{nf, ok, nf, ok}},
		{name: "history-foreign", method: "GET", path: "/v1/history?ip=" + foreign, want: [numCfgs]int{nf, ok, nf, mis}},
		{name: "history-missing-ip", method: "GET", path: "/v1/history", want: [numCfgs]int{nf, bad, nf, bad}},
		{name: "history-expired-deadline", method: "GET", path: "/v1/history?ip=" + owned, deadline: expired, want: [numCfgs]int{nf, ok, nf, gto}},
		{name: "generations", method: "GET", path: "/v1/generations", deadline: expired, want: [numCfgs]int{nf, ok, nf, ok}},
		{name: "info", method: "GET", path: "/v1/info", deadline: expired, want: [numCfgs]int{ok, ok, ok, ok}},
		{name: "cluster-health", method: "GET", path: "/v1/cluster/health", deadline: expired, want: [numCfgs]int{nf, nf, ok, ok}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got [numCfgs]routeAnswer
			for c := range got {
				got[c] = doRoute(t, tc.method, urls[c]+tc.path, tc.body, tc.deadline)
				wantType := "application/json"
				if tc.want[c] == nf && !strings.HasPrefix(tc.path, "/v1/lookup") {
					wantType = "text/plain; charset=utf-8" // route not mounted
				}
				if got[c].status != tc.want[c] || got[c].ctype != wantType {
					t.Errorf("%s: %s %s = %d %q, want %d %q (%s)", cfgNames[c], tc.method, tc.path,
						got[c].status, got[c].ctype, tc.want[c], wantType, bytes.TrimSpace(got[c].body))
				}
				for d := 0; d < c; d++ {
					if got[d].status == got[c].status && !bytes.Equal(got[d].body, got[c].body) {
						t.Errorf("%s and %s disagree on %s %s (status %d):\n%s\n%s", cfgNames[d], cfgNames[c],
							tc.method, tc.path, got[c].status, got[d].body, got[c].body)
					}
				}
			}
			if tc.refPath != "" {
				want := doRoute(t, http.MethodGet, ref.URL+tc.refPath, "", "")
				for c, a := range got {
					if a.status == ok && !bytes.Equal(a.body, want.body) {
						t.Errorf("%s: %s = %s, want generation 1 served as current: %s", cfgNames[c], tc.path, a.body, want.body)
					}
				}
			}
		})
	}
}

// TestGenWithoutHistoryRejected: a node without a history index cannot
// answer a generation-addressed lookup, so it must refuse one with 400
// instead of answering from the current generation — directly, and
// through a gateway whose shards keep no history.
func TestGenWithoutHistoryRejected(t *testing.T) {
	m := mkMap(t, "2016-12", genOneEntries())
	plainMux := http.NewServeMux()
	cellmap.MountSource(plainMux, cellmap.NewSwappable(m, 7))
	plain := httptest.NewServer(plainMux)
	defer plain.Close()

	f := newTestFleet(t, 2, 1, m, 7)
	g, gsrv, _ := f.gateway(t, nil)
	g.CheckNow(context.Background())

	for name, url := range map[string]string{"plain": plain.URL, "gateway": gsrv.URL} {
		a := doRoute(t, http.MethodGet, url+"/v1/lookup?ip=10.0.7.99&gen=3", "", "")
		if a.status != http.StatusBadRequest || !strings.Contains(string(a.body), "gen parameter is not supported") {
			t.Errorf("%s: gen=3 on a node without history = %d %s, want 400 naming the gen parameter", name, a.status, a.body)
		}
	}
}

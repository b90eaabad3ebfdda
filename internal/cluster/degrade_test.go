package cluster

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
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cellspot/internal/cellmap"
	"cellspot/internal/history"
	"cellspot/internal/snapshot"
)

// --- circuit breaker unit behavior ---

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, 50*time.Millisecond, nil)

	for i := 0; i < 2; i++ {
		b.record(false, now)
	}
	if got := b.stateName(); got != "closed" {
		t.Fatalf("after 2 failures: %s, want closed", got)
	}
	b.record(false, now)
	if got := b.stateName(); got != "open" {
		t.Fatalf("after 3rd failure: %s, want open", got)
	}
	if b.allow(now.Add(10 * time.Millisecond)) {
		t.Fatal("open breaker allowed traffic inside cooldown")
	}
	if b.acquire(now.Add(10 * time.Millisecond)) {
		t.Fatal("open breaker acquired inside cooldown")
	}

	// Cooldown elapses: exactly one half-open probe slot.
	later := now.Add(60 * time.Millisecond)
	if !b.allow(later) {
		t.Fatal("cooled-down breaker refused ranking")
	}
	if !b.acquire(later) {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if b.acquire(later) {
		t.Fatal("second concurrent probe acquired")
	}
	// An abandoned probe frees the slot without a verdict.
	b.abandon()
	if got := b.stateName(); got != "half-open" {
		t.Fatalf("after abandon: %s, want half-open", got)
	}
	if !b.acquire(later) {
		t.Fatal("probe slot not freed by abandon")
	}
	// Failed probe: open again for a full cooldown.
	b.record(false, later)
	if got := b.stateName(); got != "open" {
		t.Fatalf("after failed probe: %s, want open", got)
	}
	// Successful probe after the next cooldown closes it.
	final := later.Add(60 * time.Millisecond)
	if !b.acquire(final) {
		t.Fatal("breaker refused probe after second cooldown")
	}
	b.record(true, final)
	if got := b.stateName(); got != "closed" {
		t.Fatalf("after successful probe: %s, want closed", got)
	}
}

// --- breaker integration: flaky replica trips, probe recovers ---

func TestGatewayBreakerTripsAndRecovers(t *testing.T) {
	var failing atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			cellmap.WriteError(w, http.StatusServiceUnavailable, "induced outage")
			return
		}
		cellmap.WriteJSON(w, cellmap.LookupResponse{Addr: r.URL.Query().Get("ip"), Generation: 1})
	}))
	defer srv.Close()

	topo := Topology{Format: TopologyFormat, Shards: []ShardSpec{{Replicas: []string{srv.URL}}}}
	g, err := NewGateway(GatewayConfig{
		Topology:         topo,
		Attempts:         1,
		BreakerThreshold: 2,
		BreakerCooldown:  80 * time.Millisecond,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := netip.MustParseAddr("10.0.0.9")

	failing.Store(true)
	for i := 0; i < 2; i++ {
		if _, _, err := g.Lookup(context.Background(), addr); err == nil {
			t.Fatal("lookup against failing replica succeeded")
		}
	}
	if got := g.Health().Replicas[0].Breaker; got != "open" {
		t.Fatalf("breaker after threshold failures: %s, want open", got)
	}
	// Still open: the forced last-resort attempt keeps returning the real
	// error rather than a synthetic refusal.
	if _, _, err := g.Lookup(context.Background(), addr); err == nil {
		t.Fatal("lookup during open breaker succeeded")
	}

	// Replica heals; after the cooldown one probe closes the breaker.
	failing.Store(false)
	time.Sleep(100 * time.Millisecond)
	status, body, err := g.Lookup(context.Background(), addr)
	if err != nil || status != http.StatusOK {
		t.Fatalf("probe lookup: status=%d err=%v", status, err)
	}
	if !bytes.Contains(body, []byte(addr.String())) {
		t.Fatalf("probe lookup body: %s", body)
	}
	if got := g.Health().Replicas[0].Breaker; got != "closed" {
		t.Fatalf("breaker after successful probe: %s, want closed", got)
	}
}

// --- satellite 2: cancellation through the hedged request path ---

// stallServer answers only when its request context dies, recording that
// the abort actually reached it.
type stallServer struct {
	srv      *httptest.Server
	started  chan struct{} // one tick per accepted request
	aborted  chan struct{} // one tick per request whose ctx was cancelled
	deadline atomic.Value  // last observed DeadlineHeader value (string)
}

func newStallServer(t *testing.T) *stallServer {
	s := &stallServer{started: make(chan struct{}, 8), aborted: make(chan struct{}, 8)}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.deadline.Store(r.Header.Get(DeadlineHeader))
		s.started <- struct{}{}
		<-r.Context().Done()
		s.aborted <- struct{}{}
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func waitTick(t *testing.T, ch chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func TestGatewayCancelMidHedgeAbortsBothTries(t *testing.T) {
	a, b := newStallServer(t), newStallServer(t)
	topo := Topology{Format: TopologyFormat, Shards: []ShardSpec{{Replicas: []string{a.srv.URL, b.srv.URL}}}}
	g, err := NewGateway(GatewayConfig{
		Topology:   topo,
		Client:     &http.Client{}, // no flat timeout; cancellation governs
		Attempts:   1,
		HedgeDelay: 10 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := g.Lookup(ctx, netip.MustParseAddr("10.0.0.9"))
		errc <- err
	}()

	// First try fires, then the hedge: both replicas are now serving.
	waitTick(t, a.started, "first try")
	waitTick(t, b.started, "hedge try")

	// Client disconnects: BOTH in-flight requests must abort.
	cancel()
	waitTick(t, a.aborted, "first try abort")
	waitTick(t, b.aborted, "hedge try abort")
	if err := <-errc; err == nil {
		t.Fatal("cancelled lookup reported success")
	}
}

func TestGatewayWinnerCancelsLosingHedge(t *testing.T) {
	loser := newStallServer(t)
	winner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cellmap.WriteJSON(w, cellmap.LookupResponse{Addr: r.URL.Query().Get("ip"), Generation: 1})
	}))
	defer winner.Close()

	topo := Topology{Format: TopologyFormat, Shards: []ShardSpec{{Replicas: []string{loser.srv.URL, winner.URL}}}}
	g, err := NewGateway(GatewayConfig{
		Topology:   topo,
		Client:     &http.Client{},
		Attempts:   1,
		HedgeDelay: 10 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pin the stalling replica first in rank so it gets the initial try
	// and the healthy one the hedge.
	g.replicas[0][0].up.Store(true)

	status, _, err := g.Lookup(context.Background(), netip.MustParseAddr("10.0.0.9"))
	if err != nil || status != http.StatusOK {
		t.Fatalf("lookup: status=%d err=%v", status, err)
	}
	// The losing try must be aborted by the winner — the parent context
	// (Background) never dies, so only per-try cancellation explains it.
	waitTick(t, loser.aborted, "loser abort after winner")
}

// --- deadline propagation gateway → shard ---

func TestGatewayPropagatesDeadline(t *testing.T) {
	rep := newStallServer(t)
	topo := Topology{Format: TopologyFormat, Shards: []ShardSpec{{Replicas: []string{rep.srv.URL}}}}
	g, err := NewGateway(GatewayConfig{Topology: topo, Client: &http.Client{}, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if _, _, err := g.Lookup(ctx, netip.MustParseAddr("10.0.0.9")); err == nil {
		t.Fatal("stalled lookup succeeded")
	}
	raw, _ := rep.deadline.Load().(string)
	if raw == "" {
		t.Fatal("no deadline header propagated")
	}
	micros, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		t.Fatalf("bad deadline header %q: %v", raw, err)
	}
	if got := time.UnixMicro(micros); got.Sub(deadline).Abs() > time.Millisecond {
		t.Fatalf("propagated deadline %v, want %v", got, deadline)
	}
}

// shardMounts are the two shard configurations of cellmap.Mount — without
// and with a history index over a snapshot store. Every degradation guard
// must hold on both.
var shardMounts = []struct {
	name  string
	mount func(t *testing.T, mux *http.ServeMux, v *ShardView)
}{
	{"MountShard", func(_ *testing.T, mux *http.ServeMux, v *ShardView) { MountShard(mux, v) }},
	{"ShardWithHistory", func(t *testing.T, mux *http.ServeMux, v *ShardView) {
		store, err := snapshot.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ix, err := history.New(history.Config{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		cellmap.Mount(mux, v.src, ix, v)
		v.MountHealth(mux)
	}},
}

// newGuardedShard serves a one-shard node through mount, with the given
// admission-control bound (0 = unbounded).
func newGuardedShard(t *testing.T, mount func(*testing.T, *http.ServeMux, *ShardView), maxInflight int) (*ShardView, *httptest.Server) {
	t.Helper()
	sw := cellmap.NewSwappable(mkMap(t, "2016-w34", genOneEntries()), 1)
	view, err := NewShardView(sw, NewRing(1, DefaultVNodes), 0)
	if err != nil {
		t.Fatal(err)
	}
	view.SetMaxInflight(maxInflight)
	mux := http.NewServeMux()
	mount(t, mux, view)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return view, srv
}

// shardStatus sends one request and drains the response.
func shardStatus(t *testing.T, method, url, deadline string, body io.Reader) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
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
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

func TestShardRefusesExpiredDeadline(t *testing.T) {
	for _, sm := range shardMounts {
		t.Run(sm.name, func(t *testing.T) {
			_, srv := newGuardedShard(t, sm.mount, 0)
			expired := strconv.FormatInt(time.Now().Add(-time.Second).UnixMicro(), 10)
			routes := []struct{ method, path, body string }{
				{http.MethodGet, "/v1/lookup?ip=10.0.0.9", ""},
				{http.MethodPost, "/v1/lookup/batch", `{"ips":["10.0.0.9"]}`},
			}
			if sm.name == "ShardWithHistory" {
				routes = append(routes, struct{ method, path, body string }{http.MethodGet, "/v1/history?ip=10.0.0.9", ""})
			}
			for _, r := range routes {
				if resp := shardStatus(t, r.method, srv.URL+r.path, expired, strings.NewReader(r.body)); resp.StatusCode != http.StatusGatewayTimeout {
					t.Fatalf("%s %s with an expired deadline: status %d, want 504", r.method, r.path, resp.StatusCode)
				}
			}

			// A live deadline is honored normally.
			live := strconv.FormatInt(time.Now().Add(time.Minute).UnixMicro(), 10)
			if resp := shardStatus(t, http.MethodGet, srv.URL+"/v1/lookup?ip=10.0.0.9", live, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("live deadline: status %d, want 200", resp.StatusCode)
			}
		})
	}
}

// --- admission control on shard nodes ---

func TestShardAdmissionControlSheds(t *testing.T) {
	for _, sm := range shardMounts {
		t.Run(sm.name, func(t *testing.T) {
			view, srv := newGuardedShard(t, sm.mount, 1)

			// Hold the only admission slot: a batch POST blocks reading
			// its body (the slot is taken before the body is consumed).
			// Closing the pipe on every exit path unblocks the server, so
			// a failure can never hang the test.
			pr, pw := io.Pipe()
			defer pw.CloseWithError(errors.New("test finished"))
			req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/lookup/batch", pr)
			req.Header.Set("Content-Type", "application/json")
			done := make(chan *http.Response, 1)
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				done <- resp
			}()

			// Pin the slot deterministically: no other request is in
			// flight, so once the count reaches one the held batch owns
			// the slot.
			deadline := time.Now().Add(5 * time.Second)
			for view.inflight.Load() == 0 {
				select {
				case resp := <-done:
					t.Fatalf("held batch finished before taking the slot: %+v", resp)
				default:
				}
				if time.Now().After(deadline) {
					t.Fatal("held batch never took the admission slot")
				}
				time.Sleep(time.Millisecond)
			}
			shed := shardStatus(t, http.MethodGet, srv.URL+"/v1/lookup?ip=10.0.0.9", "", nil)
			if shed.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("lookup with the slot held: status %d, want 503", shed.StatusCode)
			}
			if got := shed.Header.Get("Retry-After"); got == "" {
				t.Fatal("shed response missing Retry-After")
			}

			// Release the slot; the node serves again.
			fmt.Fprint(pw, `{"ips":["10.0.0.9"]}`)
			pw.Close()
			if resp := <-done; resp == nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("held batch request: %+v", resp)
			}
			if resp := shardStatus(t, http.MethodGet, srv.URL+"/v1/lookup?ip=10.0.0.9", "", nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("post-release lookup: status %d", resp.StatusCode)
			}
		})
	}
}

// --- degraded batch mode ---

// splitBySpan picks covered addresses until the batch spans all shards.
func batchSpanningAll(t *testing.T, ring *Ring, shards int) []netip.Addr {
	t.Helper()
	var out []netip.Addr
	seen := make(map[int]bool)
	for _, a := range coveredAddrs() {
		out = append(out, a)
		seen[ring.Owner(a)] = true
	}
	if len(seen) != shards {
		t.Fatalf("covered addresses span %d shards, want %d", len(seen), shards)
	}
	return out
}

func postBatch(t *testing.T, url string, addrs []netip.Addr) (*http.Response, cellmap.BatchResponse) {
	t.Helper()
	ips := make([]string, len(addrs))
	for i, a := range addrs {
		ips[i] = a.String()
	}
	payload, _ := json.Marshal(cellmap.BatchRequest{IPs: ips})
	resp, err := http.Post(url+"/v1/lookup/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br cellmap.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, br
}

func TestGatewayDegradedBatchMode(t *testing.T) {
	const shards = 3
	m := mkMap(t, "2016-w34", genOneEntries())

	// Strict fleet: one dark shard fails the whole batch (the default,
	// unchanged behavior).
	strict := newTestFleet(t, shards, 1, m, 1)
	_, strictSrv, _ := strict.gateway(t, func(c *GatewayConfig) {
		c.Attempts = 1
		c.HedgeDelay = 5 * time.Millisecond
	})
	addrs := batchSpanningAll(t, strict.ring, shards)
	strict.kill(2, 0)
	resp, _ := postBatch(t, strictSrv.URL, addrs)
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("strict mode served a batch with a dark shard: %d", resp.StatusCode)
	}

	// Degraded fleet: same outage, partial answer with explicit markers.
	deg := newTestFleet(t, shards, 1, m, 1)
	_, degSrv, _ := deg.gateway(t, func(c *GatewayConfig) {
		c.Attempts = 1
		c.HedgeDelay = 5 * time.Millisecond
		c.AllowDegraded = true
		c.CacheSize = 256
	})
	addrs = batchSpanningAll(t, deg.ring, shards)
	deg.kill(2, 0)

	check := func(br cellmap.BatchResponse) (degraded int) {
		if !br.Degraded {
			t.Fatal("response not marked degraded")
		}
		for i, r := range br.Results {
			owner := deg.ring.Owner(addrs[i])
			if owner == 2 {
				if !r.Degraded {
					t.Fatalf("addr %s (dark shard) not marked degraded: %+v", addrs[i], r)
				}
				if r.Cellular || r.Prefix != "" || r.Generation != 0 {
					t.Fatalf("degraded placeholder carries data: %+v", r)
				}
				degraded++
			} else {
				if r.Degraded {
					t.Fatalf("addr %s (live shard %d) marked degraded", addrs[i], owner)
				}
				if r.Addr != addrs[i].String() {
					t.Fatalf("result %d out of order: %s != %s", i, r.Addr, addrs[i])
				}
			}
		}
		if degraded == 0 {
			t.Fatal("no degraded placeholders in a batch spanning the dark shard")
		}
		if br.Generation != 1 {
			t.Fatalf("degraded batch generation %d, want 1", br.Generation)
		}
		return degraded
	}

	resp, br := postBatch(t, degSrv.URL, addrs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded batch: status %d", resp.StatusCode)
	}
	first := check(br)

	// Degraded placeholders must not be cached: the second batch (live
	// results now cache hits) still reports its dark addresses degraded at
	// the response level — a cached placeholder would surface as a silent
	// non-degraded miss instead.
	resp, br = postBatch(t, degSrv.URL, addrs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second degraded batch: status %d", resp.StatusCode)
	}
	if got := check(br); got != first {
		t.Fatalf("second batch degraded %d addrs, first %d", got, first)
	}

	// A batch aimed entirely at the dark shard is a majority-dark batch:
	// strict failure even in degraded mode.
	var darkOnly []netip.Addr
	for _, a := range addrs {
		if deg.ring.Owner(a) == 2 {
			darkOnly = append(darkOnly, a)
		}
	}
	resp, _ = postBatch(t, degSrv.URL, darkOnly)
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("single-shard dark batch served degraded: %d", resp.StatusCode)
	}
}

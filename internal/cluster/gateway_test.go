package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cellspot/internal/cellmap"
)

func TestGatewayRoutesSingleLookups(t *testing.T) {
	m := mkMap(t, "2016-12", genOneEntries())
	f := newTestFleet(t, 3, 2, m, 1)
	g, srv, _ := f.gateway(t, nil)
	g.CheckNow(context.Background())

	for _, a := range coveredAddrs() {
		resp, err := http.Get(srv.URL + "/v1/lookup?ip=" + a.String())
		if err != nil {
			t.Fatal(err)
		}
		var lr cellmap.LookupResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", a, resp.StatusCode)
		}
		if want := cellmap.LookupAddr(m, 1, a, a.String()); !reflect.DeepEqual(lr, want) {
			t.Errorf("%s: got %+v, want %+v", a, lr, want)
		}
	}

	// Gateway-side input validation mirrors the single-node service.
	for _, q := range []string{"", "?ip=nope"} {
		resp, err := http.Get(srv.URL + "/v1/lookup" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("lookup%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestGatewaySurvivesReplicaDeath(t *testing.T) {
	m := mkMap(t, "2016-12", genOneEntries())
	f := newTestFleet(t, 3, 2, m, 1)
	g, srv, _ := f.gateway(t, func(c *GatewayConfig) {
		c.HedgeDelay = 5 * time.Millisecond
		c.Backoff = 5 * time.Millisecond
	})
	g.CheckNow(context.Background())

	// Kill one replica of every shard: every request now has exactly one
	// live replica to land on.
	for s := 0; s < 3; s++ {
		f.kill(s, 0)
	}
	for _, a := range coveredAddrs() {
		resp, err := http.Get(srv.URL + "/v1/lookup?ip=" + a.String())
		if err != nil {
			t.Fatal(err)
		}
		var lr cellmap.LookupResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d after replica death", a, resp.StatusCode)
		}
		if want := cellmap.LookupAddr(m, 1, a, a.String()); !reflect.DeepEqual(lr, want) {
			t.Errorf("%s: got %+v, want %+v", a, lr, want)
		}
	}
}

func TestGatewayAllReplicasDown(t *testing.T) {
	m := mkMap(t, "2016-12", genOneEntries())
	f := newTestFleet(t, 2, 1, m, 1)
	_, srv, _ := f.gateway(t, func(c *GatewayConfig) {
		c.Backoff = time.Millisecond
	})
	f.kill(0, 0)
	f.kill(1, 0)
	resp, err := http.Get(srv.URL + "/v1/lookup?ip=10.0.0.9")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	var e cellmap.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("502 body %v not the JSON error convention (%v)", e, err)
	}
}

// TestGatewayHedging pins the hedged-request path: when the replica a
// request lands on stalls past the hedge delay, the gateway must fire a
// second request at the other replica and serve its answer instead of
// waiting out the stall.
func TestGatewayHedging(t *testing.T) {
	m := mkMap(t, "2016-12", genOneEntries())
	f := newTestFleet(t, 1, 2, m, 1)

	// Replace replica 0 with a stalling proxy to the real handler.
	slowTarget := f.srvs[0][0].Config.Handler
	stall := make(chan struct{})
	f.srvs[0][0].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stall:
		case <-r.Context().Done():
			return
		}
		slowTarget.ServeHTTP(w, r)
	})
	defer close(stall)

	g, srv, reg := f.gateway(t, func(c *GatewayConfig) {
		c.HedgeDelay = 3 * time.Millisecond
	})
	g.CheckNow(context.Background())
	// Health probes also hit the stalling replica; mark both up by hand so
	// replica order is purely round-robin.
	for _, rep := range g.replicas[0] {
		rep.up.Store(true)
		rep.gen.Store(1)
	}

	// Over several requests, round-robin starts on the stalled replica
	// about half the time; each such request must be rescued by a hedge
	// well before the client timeout. Every request asks for a different
	// address, so none is answered from the gateway's cache.
	addrs := coveredAddrs()
	for i := 0; i < 6; i++ {
		addr := addrs[i]
		start := time.Now()
		resp, err := http.Get(srv.URL + "/v1/lookup?ip=" + addr.String())
		if err != nil {
			t.Fatal(err)
		}
		var lr cellmap.LookupResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if want := cellmap.LookupAddr(m, 1, addr, addr.String()); !reflect.DeepEqual(lr, want) {
			t.Errorf("request %d: got %+v, want %+v", i, lr, want)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("request %d took %v despite hedging", i, d)
		}
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `cluster_hedged_requests_total{shard="0"}`) {
		t.Fatalf("hedge counter missing from exposition:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), `cluster_hedged_requests_total{shard="0"} 0`) {
		t.Error("no hedges fired against a stalled replica")
	}
}

func TestGatewayBatchMergesInRequestOrder(t *testing.T) {
	m := mkMap(t, "2016-12", genOneEntries())
	f := newTestFleet(t, 3, 1, m, 1)
	g, srv, _ := f.gateway(t, nil)
	g.CheckNow(context.Background())

	addrs := coveredAddrs()
	ips := make([]string, len(addrs))
	for i, a := range addrs {
		ips[i] = a.String()
	}
	body, err := json.Marshal(cellmap.BatchRequest{IPs: ips})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/lookup/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var br cellmap.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Generation != 1 || len(br.Results) != len(addrs) {
		t.Fatalf("batch = gen %d, %d results", br.Generation, len(br.Results))
	}
	for i, a := range addrs {
		if want := cellmap.LookupAddr(m, 1, a, a.String()); !reflect.DeepEqual(br.Results[i], want) {
			t.Errorf("result %d (%s): got %+v, want %+v", i, a, br.Results[i], want)
		}
	}
}

// TestGatewayBatchGenerationReconciliation: one shard's primary replica
// lags a generation behind while its sibling has caught up. The guard
// must notice the mix and re-query the laggard shard, landing on the
// caught-up sibling, so the final batch is uniform at the new generation.
func TestGatewayBatchGenerationReconciliation(t *testing.T) {
	m1 := mkMap(t, "2016-12", genOneEntries())
	m2 := mkMap(t, "2017-01", genTwoEntries())
	f := newTestFleet(t, 2, 2, m1, 1)

	g, srv, reg := f.gateway(t, func(c *GatewayConfig) {
		c.Backoff = time.Millisecond
	})
	g.CheckNow(context.Background())

	// Shard 0: both replicas at gen 2. Shard 1: replica 0 stuck at gen 1,
	// replica 1 at gen 2. The swap lands after the health sweep, so
	// neither the health view nor the cache's generation floor steers
	// the first gather of shard 1 away from the stale replica.
	f.swap(0, 0, m2, 2)
	f.swap(0, 1, m2, 2)
	f.swap(1, 1, m2, 2)

	// Run several batches: round-robin guarantees some first-round gathers
	// hit the stale replica and need reconciliation. Each batch asks for
	// addresses no earlier batch did, so it misses the cache and fans out.
	sawConflict := false
	for i := 0; i < 8; i++ {
		addrs := freshAddrs(i)
		ips := make([]string, len(addrs))
		for j, a := range addrs {
			ips[j] = a.String()
		}
		body, err := json.Marshal(cellmap.BatchRequest{IPs: ips})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/lookup/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var br cellmap.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
		if br.Generation != 2 {
			t.Fatalf("batch %d: generation %d, want 2", i, br.Generation)
		}
		for j, a := range addrs {
			if want := cellmap.LookupAddr(m2, 2, a, a.String()); !reflect.DeepEqual(br.Results[j], want) {
				t.Fatalf("batch %d result %d (%s): got %+v, want %+v", i, j, a, br.Results[j], want)
			}
		}
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "cluster_generation_conflicts_total ") &&
			!strings.HasSuffix(line, " 0") {
			sawConflict = true
		}
	}
	if !sawConflict {
		t.Error("reconciliation never exercised: conflict counter stayed 0")
	}
}

// TestGatewayBatchGenerationSplit: when a shard has no replica at the
// fleet's newest generation, the guard must fail the batch rather than
// mix generations.
func TestGatewayBatchGenerationSplit(t *testing.T) {
	m1 := mkMap(t, "2016-12", genOneEntries())
	m2 := mkMap(t, "2017-01", genTwoEntries())
	f := newTestFleet(t, 2, 1, m1, 1)
	f.swap(0, 0, m2, 2) // shard 1 can only ever answer gen 1

	g, srv, _ := f.gateway(t, func(c *GatewayConfig) {
		c.Backoff = time.Millisecond
	})
	g.CheckNow(context.Background())

	// Addresses spanning both shards force the conflict.
	a0 := addrOwnedBy(t, f.ring, 0)
	a1 := addrOwnedBy(t, f.ring, 1)
	body := fmt.Sprintf(`{"ips":[%q,%q]}`, a0, a1)
	resp, err := http.Post(srv.URL+"/v1/lookup/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var e cellmap.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("503 body %v not the JSON error convention (%v)", e, err)
	}
}

// TestGatewayBatchLimit: the gateway enforces the same address-count cap
// as every shard, so an oversized batch is refused at the edge.
func TestGatewayBatchLimit(t *testing.T) {
	m := mkMap(t, "2016-12", genOneEntries())
	f := newTestFleet(t, 2, 1, m, 1)
	_, srv, _ := f.gateway(t, nil)
	ips := make([]string, cellmap.DefaultBatchLimit+1)
	for i := range ips {
		ips[i] = fmt.Sprintf("10.0.%d.1", i%16)
	}
	body, err := json.Marshal(cellmap.BatchRequest{IPs: ips})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/lookup/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
}

func TestGatewayHealthView(t *testing.T) {
	m := mkMap(t, "2016-12", genOneEntries())
	f := newTestFleet(t, 2, 2, m, 5)
	f.kill(1, 1)
	g, srv, _ := f.gateway(t, nil)
	g.CheckNow(context.Background())

	resp, err := http.Get(srv.URL + "/v1/cluster/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h GatewayHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Shards != 2 || len(h.Replicas) != 4 {
		t.Fatalf("health = %+v", h)
	}
	if h.QuorumGeneration != 5 {
		t.Errorf("quorum generation = %d, want 5", h.QuorumGeneration)
	}
	up, down := 0, 0
	for _, r := range h.Replicas {
		if r.Up {
			up++
			if r.Generation != 5 {
				t.Errorf("up replica at generation %d", r.Generation)
			}
		} else {
			down++
		}
	}
	if up != 3 || down != 1 {
		t.Errorf("up=%d down=%d, want 3/1", up, down)
	}
}

// TestHealthSweepCancelledKeepsView: a sweep cut short by its own context
// (the health loop stopping) says nothing about the replicas, so the view
// stays as the last completed sweep left it.
func TestHealthSweepCancelledKeepsView(t *testing.T) {
	m := mkMap(t, "2016-12", genOneEntries())
	f := newTestFleet(t, 2, 1, m, 1)
	g, _, _ := f.gateway(t, nil)
	g.CheckNow(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g.CheckNow(ctx)
	for _, r := range g.Health().Replicas {
		if !r.Up {
			t.Errorf("replica %d/%d marked down by a cancelled sweep", r.Shard, r.Replica)
		}
	}
}

// TestQuorumGenDeprioritizesLaggards pins replicaOrder: an up-but-lagging
// replica sorts after up replicas at the quorum generation.
func TestQuorumGenDeprioritizesLaggards(t *testing.T) {
	m := mkMap(t, "2016-12", genOneEntries())
	f := newTestFleet(t, 1, 3, m, 2)
	f.swap(0, 1, m, 1) // replica 1 lags
	g, _, _ := f.gateway(t, nil)
	g.CheckNow(context.Background())

	if q := g.quorumGen(); q != 2 {
		t.Fatalf("quorum generation = %d, want 2", q)
	}
	for trial := 0; trial < 6; trial++ {
		order := g.replicaOrder(0, g.quorumGen())
		if len(order) != 3 {
			t.Fatalf("order has %d replicas", len(order))
		}
		if last := order[2]; last.index != 1 {
			t.Errorf("trial %d: lagging replica ranked %v, want last", trial,
				[]int{order[0].index, order[1].index, order[2].index})
		}
	}
}

// p95Ref is the hedge p95 as it was computed before the sorted window:
// copy the filled ring, sort the copy, index it.
func p95Ref(t *latencyTracker) (time.Duration, bool) {
	if t.n < 16 {
		return 0, false
	}
	tmp := slices.Clone(t.samples[:t.n])
	slices.Sort(tmp)
	return tmp[len(tmp)*95/100], true
}

// TestLatencyTrackerP95MatchesSort drives trackers through more samples
// than the ring holds, from value sets small enough to repeat durations
// often, and checks after every observe that p95 equals the copy-and-sort
// rule (the cold answer below 16 samples included) and that the sorted
// window holds exactly the ring's samples.
func TestLatencyTrackerP95MatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for _, distinct := range []int{1, 3, 40, 1 << 30} {
		tr := &latencyTracker{}
		for i := 0; i < 3*len(tr.samples)+17; i++ {
			tr.observe(time.Duration(rng.IntN(distinct)))
			got, gotOK := tr.p95()
			want, wantOK := p95Ref(tr)
			if got != want || gotOK != wantOK {
				t.Fatalf("%d distinct values, after %d samples: p95 = %v (%v), copy-and-sort %v (%v)",
					distinct, i+1, got, gotOK, want, wantOK)
			}
			ring := slices.Clone(tr.samples[:tr.n])
			slices.Sort(ring)
			if !slices.Equal(ring, tr.sorted[:tr.n]) {
				t.Fatalf("%d distinct values, after %d samples: sorted window %v, ring holds %v",
					distinct, i+1, tr.sorted[:tr.n], ring)
			}
		}
	}
}

// TestLatencyTrackerConcurrent observes and reads one tracker from several
// goroutines at once, as issueOne and hedgedTry do, then checks that the
// sorted window still holds exactly the ring's samples.
func TestLatencyTrackerConcurrent(t *testing.T) {
	tr := &latencyTracker{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.observe(time.Duration((g*7919 + i*104729) % 1000))
				tr.p95()
			}
		}(g)
	}
	wg.Wait()
	ring := slices.Clone(tr.samples[:tr.n])
	slices.Sort(ring)
	if tr.n != len(tr.samples) || !slices.Equal(ring, tr.sorted[:tr.n]) {
		t.Fatalf("after concurrent use: %d samples, sorted window %v, ring holds %v", tr.n, tr.sorted[:tr.n], ring)
	}
}

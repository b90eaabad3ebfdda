package cluster

import (
	"context"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellspot/internal/cellmap"
	"cellspot/internal/obs"
)

func cacheResp(addr string, gen uint64) cellmap.LookupResponse {
	return cellmap.LookupResponse{Addr: addr, Generation: gen, Cellular: true, Prefix: addr + "/32"}
}

// TestLookupCacheUnit exercises the cache in isolation: LRU order,
// generation advance semantics, and the refusal to cache the past.
func TestLookupCacheUnit(t *testing.T) {
	reg := obs.NewRegistry()
	c := newLookupCache(2, reg)

	a1 := netip.MustParseAddr("10.0.0.1")
	a2 := netip.MustParseAddr("10.0.0.2")
	a3 := netip.MustParseAddr("10.0.0.3")

	if _, gen, ok := c.get(a1); ok || gen != 0 {
		t.Fatalf("empty cache returned a hit (gen %d)", gen)
	}
	c.put(1, a1, cacheResp("10.0.0.1", 1))
	c.put(1, a2, cacheResp("10.0.0.2", 1))
	if r, gen, ok := c.get(a1); !ok || gen != 1 || r.Addr != "10.0.0.1" {
		t.Fatalf("get(a1) = %+v gen=%d ok=%v", r, gen, ok)
	}

	// a1 was just touched, so inserting a3 over capacity must evict a2.
	c.put(1, a3, cacheResp("10.0.0.3", 1))
	if c.len() != 2 {
		t.Fatalf("len = %d after eviction, want 2", c.len())
	}
	if _, _, ok := c.get(a2); ok {
		t.Fatal("a2 survived eviction but was least recently used")
	}
	if _, _, ok := c.get(a1); !ok {
		t.Fatal("a1 evicted despite being most recently used")
	}

	// An answer from an older generation must never enter the cache.
	c.observe(5)
	if c.len() != 0 || c.generation() != 5 {
		t.Fatalf("observe(5): len=%d gen=%d, want empty at 5", c.len(), c.generation())
	}
	c.put(3, a1, cacheResp("10.0.0.1", 3))
	if c.len() != 0 {
		t.Fatal("stale-generation put was cached")
	}
	// A newer-generation put advances and lands.
	c.put(7, a1, cacheResp("10.0.0.1", 7))
	if r, gen, ok := c.get(a1); !ok || gen != 7 || r.Generation != 7 {
		t.Fatalf("get after gen-7 put = %+v gen=%d ok=%v", r, gen, ok)
	}

	// getMany is atomic: all hits share the returned generation.
	c.put(7, a2, cacheResp("10.0.0.2", 7))
	out := make([]cellmap.LookupResponse, 3)
	hit := make([]bool, 3)
	gen := c.getMany([]netip.Addr{a1, a2, a3}, out, hit)
	if gen != 7 || !hit[0] || !hit[1] || hit[2] {
		t.Fatalf("getMany gen=%d hits=%v", gen, hit)
	}

	// Metrics reflect the traffic above.
	if c.mHits.Value() == 0 || c.mMisses.Value() == 0 || c.mInvalidations.Value() == 0 {
		t.Errorf("counters hits=%d misses=%d invalidations=%d, want all > 0",
			c.mHits.Value(), c.mMisses.Value(), c.mInvalidations.Value())
	}
	if c.mEntries.Value() != 2 {
		t.Errorf("entries gauge = %d, want 2", c.mEntries.Value())
	}
}

// TestGatewayCacheServing pins the serving semantics end to end: a repeat
// single lookup is answered from the cache byte-for-byte identically, a
// repeat batch is an all-hit, and a fleet-wide swap observed by a health
// probe invalidates everything so the next answer is the new generation's.
func TestGatewayCacheServing(t *testing.T) {
	m1 := mkMap(t, "2016-12", genOneEntries())
	m2 := mkMap(t, "2017-01", genTwoEntries())
	f := newTestFleet(t, 2, 1, m1, 1)
	g, srv, reg := f.gateway(t, func(c *GatewayConfig) {
		c.CacheSize = 64
	})
	ctx := context.Background()
	g.CheckNow(ctx)

	get := func(a netip.Addr) (int, []byte) {
		resp, err := http.Get(srv.URL + "/v1/lookup?ip=" + a.String())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	_ = reg

	addr := coveredAddrs()[0]
	st1, body1 := get(addr)
	if st1 != http.StatusOK {
		t.Fatalf("first lookup: status %d: %s", st1, body1)
	}
	hitsBefore := g.cache.mHits.Value()
	st2, body2 := get(addr)
	if st2 != http.StatusOK || string(body2) != string(body1) {
		t.Fatalf("cached lookup differs: status %d body %q want %q", st2, body2, body1)
	}
	if got := g.cache.mHits.Value(); got != hitsBefore+1 {
		t.Fatalf("cache hits %v after repeat lookup, want %v", got, hitsBefore+1)
	}

	// A miss (uncachable 404-class answer is still a 200 JSON miss here)
	// caches too: non-cellular answers are answers.
	missAddr := netip.MustParseAddr("192.0.2.1")
	_, mb1 := get(missAddr)
	_, mb2 := get(missAddr)
	if string(mb1) != string(mb2) {
		t.Fatalf("negative answer not cached identically: %q vs %q", mb1, mb2)
	}

	// Batch path: first populates, second is an all-hit at one generation.
	addrs := coveredAddrs()[:8]
	br1, err := g.Batch(ctx, addrs)
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore = g.cache.mHits.Value()
	br2, err := g.Batch(ctx, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if br2.Generation != br1.Generation || len(br2.Results) != len(br1.Results) {
		t.Fatalf("cached batch shape differs: %+v vs %+v", br2, br1)
	}
	for i := range br2.Results {
		if !reflect.DeepEqual(br2.Results[i], br1.Results[i]) {
			t.Fatalf("cached batch result %d differs: %+v vs %+v", i, br2.Results[i], br1.Results[i])
		}
	}
	if got := g.cache.mHits.Value(); got < hitsBefore+uint64(len(addrs)) {
		t.Fatalf("cache hits %v after all-hit batch, want >= %v", got, hitsBefore+uint64(len(addrs)))
	}

	// Swap the fleet to generation 2; the health probe observes it and the
	// cache drops generation 1 wholesale.
	f.swap(0, 0, m2, 2)
	f.swap(1, 0, m2, 2)
	g.CheckNow(ctx)
	if g.cache.generation() != 2 || g.cache.len() != 0 {
		t.Fatalf("after swap: cache gen=%d len=%d, want 2 and empty",
			g.cache.generation(), g.cache.len())
	}
	if g.cache.mInvalidations.Value() == 0 {
		t.Error("invalidation counter did not move on swap")
	}
	st3, body3 := get(addr)
	var lr cellmap.LookupResponse
	if st3 != http.StatusOK || json.Unmarshal(body3, &lr) != nil || lr.Generation != 2 {
		t.Fatalf("post-swap lookup: status %d gen %d body %s", st3, lr.Generation, body3)
	}
	want := cellmap.LookupAddr(m2, 2, addr, addr.String())
	if !reflect.DeepEqual(lr, want) {
		t.Fatalf("post-swap answer %+v, want %+v", lr, want)
	}

	// The cache family names are exported on /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, fam := range []string{
		"cluster_cache_hits_total",
		"cluster_cache_misses_total",
		"cluster_cache_invalidations_total",
		"cluster_cache_entries",
	} {
		if !strings.Contains(string(metrics), fam) {
			t.Errorf("metric %q missing from gateway /metrics", fam)
		}
	}
}

// TestGatewayCacheSwapHammer is the invalidation torture test, run under
// -race in CI: a 3×2 fleet rolls through six generations while batch
// clients hammer the cached gateway. Three properties must hold for every
// single 200 answer:
//
//  1. zero mixed-generation batches — all results in a response carry the
//     response's generation;
//  2. zero stale-generation responses — each client's observed generation
//     never decreases (the cache can only move forward);
//  3. zero wrong answers — every result matches the dataset of the
//     generation it claims.
func TestGatewayCacheSwapHammer(t *testing.T) {
	m1 := mkMap(t, "2016-12", genOneEntries())
	m2 := mkMap(t, "2017-01", genTwoEntries())

	const lastGen = 6
	maps := map[uint64]*cellmap.Map{}
	expected := map[uint64]map[netip.Addr]cellmap.LookupResponse{}
	for gen := uint64(1); gen <= lastGen; gen++ {
		m := m1
		if gen%2 == 0 {
			m = m2
		}
		maps[gen] = m
		expected[gen] = map[netip.Addr]cellmap.LookupResponse{}
		for _, a := range coveredAddrs() {
			expected[gen][a] = cellmap.LookupAddr(m, gen, a, a.String())
		}
	}

	f := newTestFleet(t, 3, 2, m1, 1)
	g, _, _ := f.gateway(t, func(c *GatewayConfig) {
		c.CacheSize = 1024
		c.HedgeDelay = 10 * time.Millisecond
		c.Backoff = 5 * time.Millisecond
		c.HealthInterval = 10 * time.Millisecond
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	healthDone := make(chan struct{})
	go func() {
		defer close(healthDone)
		g.Run(ctx)
	}()
	waitFor(t, time.Second, func() bool {
		for _, r := range g.Health().Replicas {
			if !r.Up {
				return false
			}
		}
		return true
	})

	var (
		stop      = make(chan struct{})
		wg        sync.WaitGroup
		served    atomic.Int64
		tolerated atomic.Int64
	)
	addrs := coveredAddrs()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0xcafe))
			var lastSeen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 1 + rng.IntN(len(addrs))
				perm := rng.Perm(len(addrs))[:n]
				batch := make([]netip.Addr, n)
				for i, idx := range perm {
					batch[i] = addrs[idx]
				}
				br, err := g.Batch(ctx, batch)
				if err != nil {
					tolerated.Add(1) // mid-swap generation split; retried by design
					continue
				}
				if br.Generation < lastSeen {
					t.Errorf("STALE RESPONSE: generation went backwards %d -> %d", lastSeen, br.Generation)
					return
				}
				lastSeen = br.Generation
				exp, known := expected[br.Generation]
				if !known {
					t.Errorf("batch claims unknown generation %d", br.Generation)
					return
				}
				for _, r := range br.Results {
					if r.Generation != br.Generation {
						t.Errorf("MIXED-GENERATION BATCH: result at %d inside response at %d",
							r.Generation, br.Generation)
						return
					}
					a, err := netip.ParseAddr(r.Addr)
					if err != nil {
						t.Errorf("unparseable addr %q in result", r.Addr)
						return
					}
					if want := exp[a]; !reflect.DeepEqual(r, want) {
						t.Errorf("WRONG ANSWER for %s at generation %d: got %+v, want %+v",
							a, br.Generation, r, want)
						return
					}
				}
				served.Add(1)
			}
		}(uint64(w + 1))
	}

	// Roll the fleet through generations 2..lastGen, each swap staggered
	// so the gateway keeps seeing mixed fleets mid-roll.
	for gen := uint64(2); gen <= lastGen; gen++ {
		time.Sleep(30 * time.Millisecond)
		for s := 0; s < 3; s++ {
			for j := 0; j < 2; j++ {
				f.swap(s, j, maps[gen], gen)
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	time.Sleep(60 * time.Millisecond)

	close(stop)
	wg.Wait()
	cancel()
	<-healthDone

	if served.Load() == 0 {
		t.Fatal("no batches served")
	}
	hits := g.cache.mHits.Value()
	if hits == 0 {
		t.Error("hammer never hit the cache — the cached path was not exercised")
	}
	if g.cache.generation() != lastGen {
		t.Errorf("cache settled at generation %d, want %d", g.cache.generation(), lastGen)
	}
	t.Logf("served=%d tolerated=%d cacheHits=%v entries=%d",
		served.Load(), tolerated.Load(), hits, g.cache.len())
}

// TestGatewayCacheRefetchOnMidBatchSwap forces the narrow race the merge
// rule exists for: the cache holds generation-1 hits, the fleet has moved
// to generation 2, and a batch with both hits and misses arrives. The
// gateway must not stitch gen-1 cache hits onto gen-2 fetched answers.
func TestGatewayCacheRefetchOnMidBatchSwap(t *testing.T) {
	m1 := mkMap(t, "2016-12", genOneEntries())
	m2 := mkMap(t, "2017-01", genTwoEntries())
	f := newTestFleet(t, 2, 1, m1, 1)
	g, _, _ := f.gateway(t, func(c *GatewayConfig) {
		c.CacheSize = 64
		c.Backoff = 2 * time.Millisecond
	})
	ctx := context.Background()
	g.CheckNow(ctx)

	addrs := coveredAddrs()[:6]
	if _, err := g.Batch(ctx, addrs[:3]); err != nil {
		t.Fatal(err)
	}
	if g.cache.len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", g.cache.len())
	}

	// Swap the fleet under the cache's feet — no health probe runs, so the
	// cache still believes generation 1 when the next batch arrives.
	f.swap(0, 0, m2, 2)
	f.swap(1, 0, m2, 2)

	br, err := g.Batch(ctx, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if br.Generation != 2 {
		t.Fatalf("post-swap batch at generation %d, want 2", br.Generation)
	}
	for i, r := range br.Results {
		if r.Generation != 2 {
			t.Fatalf("result %d at generation %d inside a generation-2 batch", i, r.Generation)
		}
		want := cellmap.LookupAddr(m2, 2, addrs[i], addrs[i].String())
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("result %d = %+v, want %+v", i, r, want)
		}
	}
	if g.cache.generation() != 2 {
		t.Fatalf("cache generation %d after refetch, want 2", g.cache.generation())
	}
}

// generation returns the generation the cache currently holds.
func (c *lookupCache) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// len reports resident entries.
func (c *lookupCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

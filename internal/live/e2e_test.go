package live

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"cellspot/internal/aschar"
	"cellspot/internal/cellmap"
	"cellspot/internal/logio"
	"cellspot/internal/obs"
	"cellspot/internal/rum"
)

// TestEndToEndLiveServing closes the full loop the subsystem exists for:
// clients post beacons to a live collector (beacond's ingest path), the
// aggregator ticks once and publishes a generation, and a cellmapd-style
// serving stack hot-swaps to it — all while lookup traffic hammers the
// serving mux. Not a single concurrent lookup may fail across the swaps,
// and after each swap /v1/info and /v1/lookup must answer from the new
// generation.
func TestEndToEndLiveServing(t *testing.T) {
	fx := newFixture(t, 40_000)
	inputs := fx.Inputs
	// The paper's AS-filter thresholds assume monthly volumes; this test is
	// about the serving loop, so disable them rather than tune them.
	inputs.Rules = aschar.Rules{}

	// Ingest side: a live collector spooling to disk, fronted by HTTP.
	// maxPerFile 400 with posts in multiples of 400 means every shard is
	// sealed (flushed) by the time the aggregator polls.
	spoolDir := t.TempDir()
	sp := logio.NewSpool(spoolDir, logio.SpoolPrefix, false, 400)
	col := rum.NewCollector(rum.WithSpool(sp))
	ingest := httptest.NewServer(col.Handler())
	defer ingest.Close()
	defer col.Close()

	// Refresh side: the aggregator publishing into a snapshot store.
	store := mustOpenStore(t)
	u, err := NewAggregator(Config{SpoolDir: spoolDir, Inputs: inputs, Store: store})
	if err != nil {
		t.Fatal(err)
	}

	// Serving side: a swappable map behind the lookup routes, starting from
	// the empty bootstrap map cellmapd serves before the first generation.
	reg := obs.NewRegistry()
	sw := cellmap.NewSwappable(cellmap.Empty("boot"), 0)
	sw.EnableMetrics(reg)
	mux := http.NewServeMux()
	cellmap.MountSource(mux, sw)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Lookup hammer: concurrent readers that must never see a failed
	// request, before, during, or after the swaps.
	done := make(chan struct{})
	var lookups, failures atomic.Int64
	var firstFailure atomic.Value
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := client.Get(srv.URL + "/v1/lookup?ip=10.0.0.1")
				if err != nil {
					failures.Add(1)
					firstFailure.CompareAndSwap(nil, err.Error())
					continue
				}
				var lr cellmap.LookupResponse
				decErr := json.NewDecoder(resp.Body).Decode(&lr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					failures.Add(1)
					firstFailure.CompareAndSwap(nil, fmt.Sprintf("status=%d decode=%v", resp.StatusCode, decErr))
					continue
				}
				lookups.Add(1)
			}
		}()
	}

	getInfo := func() cellmap.Info {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/info")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info cellmap.Info
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info
	}

	ctx := context.Background()
	cl := rum.Client{BaseURL: ingest.URL}

	// Round 1: post beacons, tick, swap.
	if err := cl.Post(ctx, fx.Records[:6000]); err != nil {
		t.Fatal(err)
	}
	res1, err := u.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Published || res1.NewRecords != 6000 {
		t.Fatalf("round 1 tick: %+v", res1)
	}
	m1, err := ReadGenerationMap(res1.Generation)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Len() == 0 {
		t.Fatal("round 1 published an empty map; the lookup assertions below would be vacuous")
	}
	sw.Swap(m1, res1.Generation.Seq)

	if info := getInfo(); info.Generation != res1.Generation.Seq || info.Entries != m1.Len() {
		t.Fatalf("after swap 1: info %+v, want generation %d with %d entries",
			info, res1.Generation.Seq, m1.Len())
	}
	// A known-cellular address must now answer from the new generation.
	want := m1.Entries()[0]
	resp, err := http.Get(srv.URL + "/v1/lookup?ip=" + want.Prefix.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var lr cellmap.LookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !lr.Cellular || lr.ASN != want.ASN {
		t.Fatalf("lookup %s = %+v, want cellular entry of AS %d", want.Prefix.Addr(), lr, want.ASN)
	}

	// Round 2: more beacons arrive, the map refreshes again under load.
	if err := cl.Post(ctx, fx.Records[6000:8000]); err != nil {
		t.Fatal(err)
	}
	res2, err := u.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Published || res2.Generation.Seq != res1.Generation.Seq+1 {
		t.Fatalf("round 2 tick: %+v (prev seq %d)", res2, res1.Generation.Seq)
	}
	m2, err := ReadGenerationMap(res2.Generation)
	if err != nil {
		t.Fatal(err)
	}
	sw.Swap(m2, res2.Generation.Seq)
	if info := getInfo(); info.Generation != res2.Generation.Seq {
		t.Fatalf("after swap 2: generation %d, want %d", info.Generation, res2.Generation.Seq)
	}

	close(done)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d concurrent lookups failed across the swaps (first: %v)",
			n, n+lookups.Load(), firstFailure.Load())
	}
	if lookups.Load() == 0 {
		t.Fatal("hammer completed no lookups")
	}
	if v := reg.Gauge("cellmap_generation", "").Value(); uint64(v) != res2.Generation.Seq {
		t.Fatalf("cellmap_generation gauge = %d, want %d", v, res2.Generation.Seq)
	}
	if v := reg.Counter("cellmap_swap_total", "").Value(); v != 2 {
		t.Fatalf("cellmap_swap_total = %d, want 2", v)
	}
}

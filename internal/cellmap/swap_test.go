package cellmap

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellspot/internal/netaddr"
	"cellspot/internal/obs"
)

// genMap builds a map whose every entry carries ASN = asnTag, over nBlocks
// /24 blocks under 10.gen.0.0. Tagging all entries with the generation's
// ASN lets readers detect a torn map: any lookup returning a mix of tags,
// or a tag inconsistent with the generation it loaded, is a race.
func genMap(t testing.TB, asnTag uint32, nBlocks int) *Map {
	t.Helper()
	blocks := make([]netaddr.Block, nBlocks)
	for i := range blocks {
		blocks[i] = netaddr.V4Block(10, byte(i>>8), byte(i))
	}
	detected := netaddr.NewSet(blocks...)
	m, err := Build(0.5, fmt.Sprintf("gen-%d", asnTag), Inputs{
		Detected: detected,
		ASOf:     func(netaddr.Block) (uint32, bool) { return asnTag, true },
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSwappableConcurrentLookups hammers lookups from many goroutines while
// generations swap concurrently. Every reader loads the current (map,
// generation) pair once, then resolves several addresses against it: each
// answer must come from exactly the loaded generation — a complete old map
// or a complete new map, never a mix. Run under -race.
func TestSwappableConcurrentLookups(t *testing.T) {
	const (
		generations = 8
		readers     = 8
		nBlocks     = 64
	)
	maps := make([]*Map, generations)
	for g := range maps {
		maps[g] = genMap(t, uint32(1000+g+1), nBlocks)
	}

	reg := obs.NewRegistry()
	sw := NewSwappable(maps[0], 1)
	sw.EnableMetrics(reg)

	addrs := []netip.Addr{
		netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("10.0.7.200"),
		netip.MustParseAddr("10.0.63.9"),
	}

	done := make(chan struct{})
	var lookups atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				m, gen := sw.Current()
				want := uint32(1000 + gen)
				for _, a := range addrs {
					e, ok := m.Lookup(a)
					if !ok {
						t.Errorf("gen %d: lookup %s missed", gen, a)
						return
					}
					if e.ASN != want {
						t.Errorf("gen %d: lookup %s returned ASN %d, want %d (torn map)", gen, a, e.ASN, want)
						return
					}
				}
				lookups.Add(1)
			}
		}()
	}

	// Swap through every generation while the readers run.
	for g := 1; g < generations; g++ {
		time.Sleep(2 * time.Millisecond)
		sw.Swap(maps[g], uint64(g+1))
	}
	time.Sleep(2 * time.Millisecond)
	close(done)
	wg.Wait()

	if n := lookups.Load(); n == 0 {
		t.Fatal("no lookups completed")
	}
	if gen := sw.Generation(); gen != generations {
		t.Fatalf("final generation = %d, want %d", gen, generations)
	}
}

// TestSwappableHTTPSwapVisibility drives the served routes across a swap:
// /v1/info and /v1/lookup must flip together to the new generation, and the
// gauges must track the served map.
func TestSwappableHTTPSwapVisibility(t *testing.T) {
	reg := obs.NewRegistry()
	sw := NewSwappable(genMap(t, 77, 4), 1)
	sw.EnableMetrics(reg)

	mux := http.NewServeMux()
	MountSource(mux, sw)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	getInfo := func() Info {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/info")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info Info
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info
	}
	lookupASN := func(ip string) uint32 {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/lookup?ip=" + ip)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var lr LookupResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		return lr.ASN
	}

	if info := getInfo(); info.Generation != 1 || info.Entries != 1 {
		t.Fatalf("before swap: %+v", info)
	}
	if asn := lookupASN("10.0.0.1"); asn != 77 {
		t.Fatalf("before swap: ASN %d, want 77", asn)
	}

	sw.Swap(genMap(t, 88, 8), 2)

	info := getInfo()
	if info.Generation != 2 {
		t.Fatalf("after swap: generation %d, want 2", info.Generation)
	}
	if asn := lookupASN("10.0.0.1"); asn != 88 {
		t.Fatalf("after swap: ASN %d, want 88", asn)
	}
	if v := reg.Gauge("cellmap_generation", "").Value(); v != 2 {
		t.Fatalf("cellmap_generation = %d, want 2", v)
	}
	if v := reg.Gauge("cellmap_entries", "").Value(); int(v) != info.Entries {
		t.Fatalf("cellmap_entries = %d, want %d", v, info.Entries)
	}
	if v := reg.Counter("cellmap_swap_total", "").Value(); v != 1 {
		t.Fatalf("cellmap_swap_total = %d, want 1", v)
	}
}

// TestSwappableMetricsOptional: a Swappable without EnableMetrics must swap
// and serve without touching metrics (nil obs handles no-op).
func TestSwappableMetricsOptional(t *testing.T) {
	sw := NewSwappable(Empty("none"), 0)
	lookup := func() (Entry, bool) {
		m, _ := sw.Current()
		return m.Lookup(netip.MustParseAddr("10.0.0.1"))
	}
	if _, ok := lookup(); ok {
		t.Fatal("empty map answered a lookup")
	}
	sw.Swap(genMap(t, 5, 2), 1)
	if e, ok := lookup(); !ok || e.ASN != 5 {
		t.Fatalf("after swap: %+v ok=%v", e, ok)
	}
}

// BenchmarkSwapUnderLoad measures lookup latency while a background
// goroutine hot-swaps generations continuously. Besides the mean ns/op it
// reports the lookup p99 in nanoseconds — the guardrail that a swap never
// stalls the read path.
func BenchmarkSwapUnderLoad(b *testing.B) {
	const nBlocks = 4096
	mapA := genMap(b, 1001, nBlocks)
	mapB := genMap(b, 1002, nBlocks)
	sw := NewSwappable(mapA, 1)

	stop := make(chan struct{})
	var swapperDone sync.WaitGroup
	swapperDone.Add(1)
	go func() {
		defer swapperDone.Done()
		gen := uint64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			gen++
			m := mapA
			if gen%2 == 0 {
				m = mapB
			}
			sw.Swap(m, gen)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	addr := netip.MustParseAddr("10.0.8.77")
	var mu sync.Mutex
	var all []float64

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]float64, 0, 1024)
		for pb.Next() {
			start := time.Now()
			m, _ := sw.Current()
			if _, ok := m.Lookup(addr); !ok {
				b.Error("lookup missed")
				return
			}
			local = append(local, float64(time.Since(start).Nanoseconds()))
		}
		mu.Lock()
		all = append(all, local...)
		mu.Unlock()
	})
	b.StopTimer()
	close(stop)
	swapperDone.Wait()

	if len(all) > 0 {
		sort.Float64s(all)
		b.ReportMetric(all[min(len(all)*99/100, len(all)-1)], "p99-ns")
	}
}

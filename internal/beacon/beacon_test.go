package beacon

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"cellspot/internal/netaddr"
	"cellspot/internal/netinfo"
	"cellspot/internal/par"
	"cellspot/internal/traffic"
	"cellspot/internal/world"
)

var cachedWorld *world.World

func smallWorld(t testing.TB) *world.World {
	t.Helper()
	if cachedWorld == nil {
		cfg := world.DefaultConfig()
		cfg.Scale = 0.002
		w, err := world.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cachedWorld = w
	}
	return cachedWorld
}

func TestAggregateBasics(t *testing.T) {
	a := NewAggregate()
	b := netaddr.V4Block(1, 2, 3)
	a.Add(b, 10, 5, 4)
	a.Add(b, 10, 5, 1)
	r, ok := a.Ratio(b)
	if !ok || math.Abs(r-0.5) > 1e-12 {
		t.Errorf("ratio = %g,%v, want 0.5", r, ok)
	}
	if _, ok := a.Ratio(netaddr.V4Block(9, 9, 9)); ok {
		t.Error("ratio for unseen block")
	}
	noAPI := netaddr.V4Block(4, 4, 4)
	a.Add(noAPI, 7, 0, 0)
	if _, ok := a.Ratio(noAPI); ok {
		t.Error("ratio defined with zero API hits")
	}
	tot := a.Totals()
	if tot.Hits != 27 || tot.API != 10 || tot.Cell != 5 {
		t.Errorf("totals = %+v", tot)
	}
	if a.Blocks() != 2 || a.CountFamily(netaddr.IPv4) != 2 || a.CountFamily(netaddr.IPv6) != 0 {
		t.Error("block counting wrong")
	}
}

func TestAggregateMergeAndRecords(t *testing.T) {
	a, b := NewAggregate(), NewAggregate()
	rec := Record{IP: netaddr.V4Block(5, 6, 7).HostAddr(9), Conn: "cellular", Browser: "Chrome Mobile"}
	b.AddRecord(rec)
	b.AddRecord(Record{IP: netaddr.V4Block(5, 6, 7).HostAddr(10), Conn: "wifi"})
	b.AddRecord(Record{IP: netaddr.V4Block(5, 6, 7).HostAddr(11)}) // no API
	a.Add(netaddr.V4Block(5, 6, 8), 1, 0, 0)
	a = Sum([]*Aggregate{a, b})
	c, ok := a.Get(netaddr.V4Block(5, 6, 7))
	if !ok || c.Hits != 3 || c.API != 2 || c.Cell != 1 {
		t.Fatalf("merged counts = %+v", c)
	}
	if !rec.HasAPI() {
		t.Error("HasAPI false for conn-bearing record")
	}
}

func TestGenerateVolumeAndAPIShare(t *testing.T) {
	w := smallWorld(t)
	cfg := DefaultGenConfig()
	cfg.TotalHits = 4_000_000
	agg, err := Generate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tot := agg.Totals()
	if math.Abs(float64(tot.Hits)-float64(cfg.TotalHits)) > 0.05*float64(cfg.TotalHits) {
		t.Errorf("total hits = %d, want ~%d", tot.Hits, cfg.TotalHits)
	}
	apiShare := float64(tot.API) / float64(tot.Hits)
	// Paper Fig 1: ~13.2% of hits carry the API in Dec 2016.
	if apiShare < 0.08 || apiShare > 0.19 {
		t.Errorf("API share = %.3f, want near 0.132", apiShare)
	}
	if tot.Cell == 0 || tot.Cell >= tot.API {
		t.Errorf("cellular labels = %d of %d API hits", tot.Cell, tot.API)
	}
}

func TestGenerateRatioSeparation(t *testing.T) {
	w := smallWorld(t)
	agg, err := Generate(w, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Ground-truth cellular CGNAT blocks should sit at high ratios,
	// fixed blocks at ~0 (Fig 2's bimodality).
	var cellHigh, cellTotal, fixedLow, fixedTotal int
	for _, bi := range w.Blocks {
		r, ok := agg.Ratio(bi.Block)
		if !ok {
			continue
		}
		if bi.Cellular && bi.CellLabelProb > 0.8 {
			cellTotal++
			if r > 0.5 {
				cellHigh++
			}
		} else if !bi.Cellular && bi.CellLabelProb < 0.01 {
			fixedTotal++
			if r < 0.1 {
				fixedLow++
			}
		}
	}
	if cellTotal == 0 || fixedTotal == 0 {
		t.Fatal("no classified blocks observed")
	}
	if frac := float64(cellHigh) / float64(cellTotal); frac < 0.95 {
		t.Errorf("high-ratio fraction of CGNAT blocks = %.3f, want > 0.95", frac)
	}
	if frac := float64(fixedLow) / float64(fixedTotal); frac < 0.97 {
		t.Errorf("low-ratio fraction of fixed blocks = %.3f, want > 0.97", frac)
	}
}

func TestGenerateBeaconlessInvisible(t *testing.T) {
	w := smallWorld(t)
	agg, err := Generate(w, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, bi := range w.Blocks {
		if bi.WebActive || bi.HitsOverride > 0 {
			continue
		}
		if _, seen := agg.Get(bi.Block); seen {
			t.Fatalf("beacon-less block %v appeared in BEACON", bi.Block)
		}
	}
}

func TestGenerateHitsOverride(t *testing.T) {
	w := smallWorld(t)
	agg, err := Generate(w, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, bi := range w.Blocks {
		if bi.HitsOverride == 0 {
			continue
		}
		c, ok := agg.Get(bi.Block)
		if !ok {
			t.Fatalf("override block %v missing from BEACON", bi.Block)
		}
		if c.API != int(bi.HitsOverride) {
			t.Fatalf("override block %v has %d API hits, want %d", bi.Block, c.API, bi.HitsOverride)
		}
		if c.Hits < c.API {
			t.Fatalf("override block %v has fewer hits than API hits", bi.Block)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	w := smallWorld(t)
	cfg := DefaultGenConfig()
	cfg.TotalHits = 500_000
	a1, err := Generate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Generate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Blocks() != a2.Blocks() {
		t.Fatal("block counts differ")
	}
	for i := range a1.Blocks() {
		b, c1 := a1.At(i)
		if c2, ok := a2.Get(b); !ok || c1 != c2 {
			t.Fatalf("counts differ for %v: %+v vs %+v", b, c1, c2)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	w := smallWorld(t)
	if _, err := Generate(w, GenConfig{TotalHits: 0}); err == nil {
		t.Error("zero TotalHits accepted")
	}
	if _, err := Generate(w, GenConfig{TotalHits: 10, BaseHits: -1}); err == nil {
		t.Error("negative BaseHits accepted")
	}
	if _, err := Stream(w, GenConfig{}); err == nil {
		t.Error("Stream with zero TotalHits accepted")
	}
}

// TestGenerateRejectsNonFiniteBaseHits: a NaN mean never ends the Poisson
// loop and an infinite one gives negative hit counts, so every generator
// must refuse both up front. The calls run under a deadline so a
// regression fails instead of hanging the suite.
func TestGenerateRejectsNonFiniteBaseHits(t *testing.T) {
	w := smallWorld(t)
	for _, base := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := DefaultGenConfig()
		cfg.TotalHits = 100_000
		cfg.BaseHits = base
		done := make(chan [3]error, 1)
		go func() {
			var errs [3]error
			_, errs[0] = Generate(w, cfg)
			_, errs[1] = GenerateTotals(w, cfg)
			_, errs[2] = Stream(w, cfg)
			done <- errs
		}()
		select {
		case errs := <-done:
			for i, name := range []string{"Generate", "GenerateTotals", "Stream"} {
				if errs[i] == nil {
					t.Errorf("%s accepted BaseHits %v", name, base)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("BaseHits %v: generation did not return", base)
		}
	}
}

// TestGenerateTotalsMatchesAggregate: F1's sampled months at its reduced
// volume, read without building an aggregate, equal the aggregate's totals
// at every seed and parallelism.
func TestGenerateTotalsMatchesAggregate(t *testing.T) {
	w := smallWorld(t)
	months := []netinfo.Month{{Year: 2015, Mon: 10}, {Year: 2016, Mon: 5},
		{Year: 2016, Mon: 12}, {Year: 2017, Mon: 6}}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, m := range months {
			for _, p := range []int{1, 8} {
				cfg := DefaultGenConfig()
				cfg.Seed = seed
				cfg.TotalHits = max(cfg.TotalHits/10, 100_000)
				cfg.Month = m
				cfg.Parallelism = p
				agg, err := Generate(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := GenerateTotals(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want := agg.Totals(); got != want {
					t.Errorf("seed %d %v Parallelism %d: totals %+v, want %+v", seed, m, p, got, want)
				}
			}
		}
	}
}

// generateViaCounts is the aggregate path before the slab merge: each
// shard's blocks sampled with a fresh RAT generator per block, every tally
// merged through Aggregate.counts one heap Counts at a time. Generate must
// reproduce it exactly.
func generateViaCounts(w *world.World, cfg GenConfig) *Aggregate {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	plans, err := plan(w, cfg)
	if err != nil {
		panic(err)
	}
	agg := NewAggregate()
	for s := range par.Shards(len(plans), genShardSize) {
		src := rand.NewPCG(cfg.Seed, aggStream^uint64(s))
		rng := rand.New(src)
		lo, hi := par.Span(s, len(plans), genShardSize)
		for _, p := range plans[lo:hi] {
			hits := traffic.PoissonSmall(src, p.meanHits)
			var api int
			if p.info.HitsOverride > 0 {
				api = int(p.info.HitsOverride)
				if hits < api {
					hits = api
				}
			} else {
				if hits == 0 {
					continue
				}
				api = traffic.Binomial(rng, hits, p.apiProb)
			}
			cell := traffic.Binomial(rng, api, p.info.CellLabelProb)
			var c3, c4, c5 int
			if cell > 0 && p.info.Cellular {
				rrng := rand.New(rand.NewPCG(cfg.Seed, ratStreamFor(p.info.Block)))
				c3, c4, c5 = splitRAT(rrng, cell, p.info.RAT.Mix(cfg.Month))
			}
			c := agg.counts(p.info.Block)
			c.Hits += hits
			c.API += api
			c.Cell += cell
			c.Cell3G += c3
			c.Cell4G += c4
			c.Cell5G += c5
		}
	}
	return agg
}

// TestGenerateMatchesCountsMerge pins the slab-backed merge to the
// per-block counts path, on the world and on a world that lists some
// blocks twice, where the second tally must add to the first.
func TestGenerateMatchesCountsMerge(t *testing.T) {
	base := smallWorld(t)
	blocks := append([]*world.BlockInfo(nil), base.Blocks...)
	for i := 0; i < len(base.Blocks); i += 97 {
		blocks = append(blocks, base.Blocks[i])
	}
	repeated := &world.World{Blocks: blocks}
	for _, w := range []*world.World{base, repeated} {
		for _, p := range []int{1, 8} {
			cfg := DefaultGenConfig()
			cfg.TotalHits = 2_000_000
			cfg.Parallelism = p
			got, err := Generate(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := generateViaCounts(w, cfg); !got.Equal(want) {
				t.Errorf("%d blocks, Parallelism %d: Generate differs from the counts merge", len(w.Blocks), p)
			}
		}
	}

	// The Counts share one slab: adding to one block leaves the rest alone.
	agg, err := Generate(base, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[netaddr.Block]Counts, agg.Blocks())
	for i := range agg.Blocks() {
		b, c := agg.At(i)
		before[b] = c
	}
	target := base.Blocks[len(base.Blocks)/2].Block
	if _, ok := agg.Get(target); !ok {
		t.Fatalf("block %v drew no hits", target)
	}
	one := Counts{Hits: 1, API: 1, Cell: 1, Cell3G: 1, Cell4G: 1, Cell5G: 1}
	agg.AddCounts(target, one)
	if agg.Blocks() != len(before) {
		t.Errorf("%d blocks after AddCounts on a present block, want %d", agg.Blocks(), len(before))
	}
	for i := range agg.Blocks() {
		b, c := agg.At(i)
		want := before[b]
		if b == target {
			want.add(one)
		}
		if c != want {
			t.Errorf("block %v: %+v after AddCounts on %v, want %+v", b, c, target, want)
		}
	}
}

func TestStreamMatchesAggregateMarginals(t *testing.T) {
	cfg := world.DefaultConfig()
	cfg.Scale = 0.0005
	w, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := DefaultGenConfig()
	gcfg.TotalHits = 300_000
	gcfg.BaseHits = 20

	seq, err := Stream(w, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed := NewAggregate()
	browsers := map[string]int{}
	n := 0
	for rec := range seq {
		if !rec.IP.IsValid() {
			t.Fatal("invalid IP in record")
		}
		if rec.Conn != "" {
			if _, err := netinfo.ParseConnectionType(rec.Conn); err != nil {
				t.Fatalf("bad conn token %q", rec.Conn)
			}
		}
		browsers[rec.Browser]++
		streamed.AddRecord(rec)
		n++
	}
	if n < gcfg.TotalHits/2 {
		t.Fatalf("streamed only %d records", n)
	}
	direct, err := Generate(w, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	st, dt := streamed.Totals(), direct.Totals()
	apiStream := float64(st.API) / float64(st.Hits)
	apiDirect := float64(dt.API) / float64(dt.Hits)
	if math.Abs(apiStream-apiDirect) > 0.03 {
		t.Errorf("API share: stream %.3f vs aggregate %.3f", apiStream, apiDirect)
	}
	cellStream := float64(st.Cell) / float64(st.API)
	cellDirect := float64(dt.Cell) / float64(dt.API)
	if math.Abs(cellStream-cellDirect) > 0.06 {
		t.Errorf("cellular label share: stream %.3f vs aggregate %.3f", cellStream, cellDirect)
	}
	if browsers[netinfo.ChromeMobile.String()] == 0 || browsers[netinfo.ChromeDesktop.String()] == 0 {
		t.Error("browser sampling missing expected families")
	}
}

func TestStreamEarlyStop(t *testing.T) {
	w := smallWorld(t)
	gcfg := DefaultGenConfig()
	seq, err := Stream(w, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range seq {
		n++
		if n >= 10 {
			break
		}
	}
	if n != 10 {
		t.Errorf("early stop yielded %d", n)
	}
}

func BenchmarkGenerateAggregate(b *testing.B) {
	w := smallWorld(b)
	cfg := DefaultGenConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ascending reports whether an aggregate's rows ascend strictly in
// canonical block order.
func ascending(a *Aggregate) bool {
	for i := 1; i < a.Blocks(); i++ {
		prev, _ := a.At(i - 1)
		if b, _ := a.At(i); !prev.Less(b) {
			return false
		}
	}
	return true
}

// TestGenerateRowsCanonical: Generate's rows ascend strictly in canonical
// block order, on the world, whose block list interleaves the families so
// the partition runs, and on one that names every 97th block twice, so the
// sort and the fold of repeated blocks run, at Parallelism 1 and 8.
func TestGenerateRowsCanonical(t *testing.T) {
	base := smallWorld(t)
	interleaved := false
	for i := 1; i < len(base.Blocks); i++ {
		if base.Blocks[i].Block.Less(base.Blocks[i-1].Block) {
			interleaved = true
		}
	}
	if !interleaved {
		t.Fatal("the world's block list is already in canonical order; the partition is untested")
	}
	blocks := append([]*world.BlockInfo(nil), base.Blocks...)
	for i := 0; i < len(base.Blocks); i += 97 {
		blocks = append(blocks, base.Blocks[i])
	}
	repeated := &world.World{Blocks: blocks}
	for _, w := range []*world.World{base, repeated} {
		for _, p := range []int{1, 8} {
			cfg := DefaultGenConfig()
			cfg.Parallelism = p
			agg, err := Generate(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if agg.Blocks() == 0 || !ascending(agg) {
				t.Errorf("%d blocks, Parallelism %d: rows not strictly ascending", len(w.Blocks), p)
			}
		}
	}
}

// TestAggregateRowOrder: an aggregate knows whether its rows are in
// canonical order, compares equal to one holding the same tallies in
// another order, and answers lookups the same before and after the first
// add builds its row index.
func TestAggregateRowOrder(t *testing.T) {
	blocks := []netaddr.Block{
		netaddr.V4Block(1, 2, 3), netaddr.V4Block(9, 9, 9),
		netaddr.V6Block(0x2001_0000_0001), netaddr.V6Block(0x2001_0000_0002),
	}
	inOrder, reversed := NewAggregate(), NewAggregate()
	for i, b := range blocks {
		inOrder.AddCounts(b, Counts{Hits: i + 1, API: i, Cell: 1, Cell4G: 1})
	}
	for i := len(blocks) - 1; i >= 0; i-- {
		reversed.AddCounts(blocks[i], Counts{Hits: i + 1, API: i, Cell: 1, Cell4G: 1})
	}
	if !inOrder.Sorted() || reversed.Sorted() {
		t.Fatalf("Sorted: %v for rows in canonical order, %v for reversed rows", inOrder.Sorted(), reversed.Sorted())
	}
	if !inOrder.Equal(reversed) || !reversed.Equal(inOrder) {
		t.Error("aggregates with the same tallies in another row order differ")
	}
	inOrder.Add(blocks[1], 1, 0, 0)
	if !inOrder.Sorted() || inOrder.Equal(reversed) {
		t.Error("adding to an existing row changed the order flag or went unseen by Equal")
	}
	for _, aggs := range [][]*Aggregate{{inOrder, reversed, inOrder}, {reversed, inOrder}} {
		want := NewAggregate()
		for _, a := range aggs {
			for i := range a.Blocks() {
				want.AddCounts(a.At(i))
			}
		}
		if got := Sum(aggs); !got.Equal(want) || !got.Sorted() || !ascending(got) {
			t.Errorf("Sum: equal %v, sorted %v, ascending %v", got.Equal(want), got.Sorted(), ascending(got))
		}
	}

	agg, err := Generate(smallWorld(t), DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, c := agg.At(agg.Blocks() / 2)
	if got, ok := agg.Get(b); !ok || got != c || !agg.Sorted() {
		t.Fatalf("Get(%v) = %+v, %v before the first add, want %+v", b, got, ok, c)
	}
	if _, ok := agg.Get(netaddr.V4Block(0, 0, 1)); ok {
		t.Error("Get found a block never drawn")
	}
	agg.Add(netaddr.V4Block(0, 0, 1), 1, 0, 0)
	if got, ok := agg.Get(b); !ok || got != c {
		t.Errorf("Get(%v) = %+v, %v after the first add, want %+v", b, got, ok, c)
	}
	if agg.Sorted() {
		t.Error("a block added below the first row left the rows marked sorted")
	}
}

// TestGenerateRejectsUndrawableMean: BaseHits 1e19 plans a mean beyond
// any int for every web-active block, whose draws would wrap to negative
// hit counts. Every generator refuses it, while the largest drawable mean
// still draws non-negative counts.
func TestGenerateRejectsUndrawableMean(t *testing.T) {
	w := smallWorld(t)
	cfg := DefaultGenConfig()
	cfg.BaseHits = 1e19
	_, errGen := Generate(w, cfg)
	_, errTotals := GenerateTotals(w, cfg)
	_, errStream := Stream(w, cfg)
	for name, err := range map[string]error{"Generate": errGen, "GenerateTotals": errTotals, "Stream": errStream} {
		if err == nil {
			t.Errorf("%s accepted BaseHits %g", name, cfg.BaseHits)
		}
	}
	cfg.BaseHits = traffic.MaxPoissonMean
	agg, err := Generate(w, cfg)
	if err != nil {
		t.Fatalf("BaseHits %g: %v", cfg.BaseHits, err)
	}
	for i := range agg.Blocks() {
		if b, c := agg.At(i); c.Hits < 0 || c.API < 0 || c.Cell < 0 {
			t.Fatalf("block %v drew %+v", b, c)
		}
	}
}

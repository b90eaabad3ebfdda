package demand

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"cellspot/internal/netaddr"
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

func TestNewDatasetNormalization(t *testing.T) {
	raw := map[netaddr.Block]float64{
		netaddr.V4Block(1, 0, 0): 3,
		netaddr.V4Block(1, 0, 1): 1,
		netaddr.V4Block(1, 0, 2): 0, // dropped
	}
	d, err := NewDataset(raw)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Total()-TotalDU) > 1e-6 {
		t.Errorf("total = %g", d.Total())
	}
	if got := d.DU(netaddr.V4Block(1, 0, 0)); math.Abs(got-75000) > 1e-6 {
		t.Errorf("DU = %g, want 75000", got)
	}
	if d.Blocks() != 2 {
		t.Errorf("blocks = %d, want 2 (zero dropped)", d.Blocks())
	}
	if d.DU(netaddr.V4Block(9, 9, 9)) != 0 {
		t.Error("unseen block has demand")
	}
}

func TestNewDatasetErrors(t *testing.T) {
	if _, err := NewDataset(map[netaddr.Block]float64{netaddr.V4Block(1, 0, 0): -1}); err == nil {
		t.Error("negative demand accepted")
	}
	d, err := NewDataset(nil)
	if err != nil || d.Total() != 0 || d.Blocks() != 0 {
		t.Error("empty dataset mishandled")
	}
	// A non-finite weight is rejected like a negative one, naming the
	// first such block in canonical order.
	a, b, c := netaddr.V4Block(1, 0, 0), netaddr.V4Block(2, 0, 0), netaddr.V4Block(3, 0, 0)
	for _, tc := range []struct {
		raw  map[netaddr.Block]float64
		want string
	}{
		{map[netaddr.Block]float64{a: 5, b: math.NaN()}, fmt.Sprintf("demand: non-finite demand NaN for %v", b)},
		{map[netaddr.Block]float64{a: 5, b: math.Inf(1)}, fmt.Sprintf("demand: non-finite demand +Inf for %v", b)},
		{map[netaddr.Block]float64{a: 5, c: math.NaN(), b: math.Inf(-1)}, fmt.Sprintf("demand: non-finite demand -Inf for %v", b)},
	} {
		for range 5 {
			d, err := NewDataset(tc.raw)
			if err == nil {
				t.Fatalf("%v accepted: %d rows, total %v", tc.raw, d.Blocks(), d.Total())
			}
			if err.Error() != tc.want {
				t.Fatalf("%v: error %q, want %q", tc.raw, err, tc.want)
			}
		}
	}
}

// TestDatasetLookupMatchesMapOracle checks Row, RowFrom and DU, which
// binary-search the block column, against a map built from Each: for
// generated datasets over both families at seeds 1-3, for every row, for
// the world's zero-demand blocks, for keys next to every row and beyond
// either end of each family, and for an empty dataset.
func TestDatasetLookupMatchesMapOracle(t *testing.T) {
	w := smallWorld(t)
	empty, err := NewDataset(nil)
	if err != nil {
		t.Fatal(err)
	}
	sets := []*Dataset{empty}
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultGenConfig()
		cfg.Seed = seed
		ds, err := Generate(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, ds)
	}
	for si, ds := range sets {
		oracle := make(map[netaddr.Block]int)
		var dus []float64
		ds.Each(func(b netaddr.Block, du float64) {
			oracle[b] = len(dus)
			dus = append(dus, du)
		})
		probes := []netaddr.Block{
			netaddr.MakeBlock(netaddr.IPv4, 0), netaddr.MakeBlock(netaddr.IPv4, 1<<24-1),
			netaddr.MakeBlock(netaddr.IPv6, 0), netaddr.MakeBlock(netaddr.IPv6, 1<<48-1),
		}
		for _, bi := range w.Blocks {
			k := bi.Block.Key()
			probes = append(probes, bi.Block,
				netaddr.MakeBlock(bi.Block.Fam(), k-1), netaddr.MakeBlock(bi.Block.Fam(), k+1))
		}
		var fams [2]int
		for _, b := range probes {
			row, ok := ds.Row(b)
			want, has := oracle[b]
			if ok != has || (has && row != want) {
				t.Fatalf("set %d: Row(%v) = %d,%v, want %d,%v", si, b, row, ok, want, has)
			}
			wantDU := 0.0
			if has {
				wantDU = dus[want]
				fams[b.Fam()]++
			}
			if got := ds.DU(b); math.Float64bits(got) != math.Float64bits(wantDU) {
				t.Fatalf("set %d: DU(%v) = %v, want %v", si, b, got, wantDU)
			}
		}
		if si > 0 && (fams[netaddr.IPv4] == 0 || fams[netaddr.IPv6] == 0) {
			t.Fatalf("set %d: hits per family %v, want both families", si, fams)
		}
		// RowFrom over the probes in ascending order, each search starting
		// where the last one ended, finds what Row finds.
		netaddr.SortBlocks(probes)
		from := 0
		for _, b := range probes {
			row, ok := ds.RowFrom(from, b)
			if want, has := oracle[b]; ok != has || (has && row != want) {
				t.Fatalf("set %d: RowFrom(%d, %v) = %d,%v, want %d,%v", si, from, b, row, ok, want, has)
			}
			from = row
		}
		if from != ds.Blocks() {
			t.Fatalf("set %d: ascending walk ended at row %d of %d", si, from, ds.Blocks())
		}
	}
}

// TestNewDatasetNegativeErrorStable pins the error for an input with more
// than one negative block: it names the first in canonical order on every
// call, whatever order map iteration reaches them in.
func TestNewDatasetNegativeErrorStable(t *testing.T) {
	raw := map[netaddr.Block]float64{
		netaddr.V4Block(9, 0, 0):        -2,
		netaddr.V4Block(3, 0, 0):        -1,
		netaddr.V4Block(1, 0, 0):        5,
		netaddr.V6Block(0x200100000001): -3,
	}
	want := fmt.Sprintf("demand: negative demand for %v", netaddr.V4Block(3, 0, 0))
	for i := 0; i < 20; i++ {
		_, err := NewDataset(raw)
		if err == nil {
			t.Fatal("negative demand accepted")
		}
		if err.Error() != want {
			t.Fatalf("call %d: error %q, want %q", i, err, want)
		}
	}
}

func TestGenerateSmoothsWindow(t *testing.T) {
	w := smallWorld(t)
	ds, err := Generate(w, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ds.Total()-TotalDU) > 1e-6 {
		t.Errorf("smoothed total = %g", ds.Total())
	}
	// Every demand-carrying world block appears; beacon-less blocks too
	// (DEMAND covers all protocols, unlike BEACON).
	for _, b := range w.Blocks {
		if b.Demand > 0 && ds.DU(b.Block) == 0 {
			t.Fatalf("block %v lost its demand", b.Block)
		}
		if b.Demand == 0 && ds.DU(b.Block) != 0 {
			t.Fatalf("idle block %v gained demand", b.Block)
		}
	}
	// Smoothing preserves demand ordering approximately: the single
	// biggest world block should stay the biggest in DU.
	var maxBlock netaddr.Block
	maxDemand := -1.0
	for _, b := range w.Blocks {
		if b.Demand > maxDemand {
			maxDemand, maxBlock = b.Demand, b.Block
		}
	}
	above := 0
	for _, b := range w.Blocks {
		if ds.DU(b.Block) > ds.DU(maxBlock) {
			above++
		}
	}
	if above >= 25 {
		t.Error("biggest ground-truth block not among top 25 DU blocks")
	}
}

func TestGenerateDayVsSmoothChurn(t *testing.T) {
	w := smallWorld(t)
	cfg := DefaultGenConfig()
	day0, err := Day(w, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	smooth, err := Generate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A single day is noisier than the smoothed window: mean absolute
	// relative deviation of day-0 DU from smoothed DU must be positive
	// but bounded.
	var sumDev float64
	n := 0
	smooth.Each(func(b netaddr.Block, du float64) {
		if du < 0.001 {
			return
		}
		sumDev += math.Abs(day0.DU(b)-du) / du
		n++
	})
	if n == 0 {
		t.Fatal("no blocks compared")
	}
	mean := sumDev / float64(n)
	if mean <= 0.001 {
		t.Errorf("day-0 deviation %.5f suspiciously low; jitter not applied?", mean)
	}
	if mean > 0.6 {
		t.Errorf("day-0 deviation %.3f too high", mean)
	}
	if _, err := Day(w, cfg, 7); err == nil {
		t.Error("out-of-range day accepted")
	}
	if _, err := Day(w, cfg, -1); err == nil {
		t.Error("negative day accepted")
	}
}

func TestGenerateErrors(t *testing.T) {
	w := smallWorld(t)
	if _, err := Generate(w, GenConfig{Days: 0}); err == nil {
		t.Error("zero days accepted")
	}
	if _, err := Generate(w, GenConfig{Days: 7, Jitter: -0.1}); err == nil {
		t.Error("negative jitter accepted")
	}
	if _, err := Day(w, GenConfig{Days: 7, Jitter: -0.1}, 0); err == nil {
		t.Error("negative jitter accepted by Day")
	}
}

// digest is a SHA-256 over every (block, DU bits) pair of ds in canonical
// order.
func digest(ds *Dataset) string {
	h := sha256.New()
	var buf [17]byte
	ds.Each(func(b netaddr.Block, du float64) {
		buf[0] = byte(b.Fam())
		binary.BigEndian.PutUint64(buf[1:9], b.Key())
		binary.BigEndian.PutUint64(buf[9:], math.Float64bits(du))
		h.Write(buf[:])
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGoldenDigest pins Generate and Day bit for bit. The digests
// were taken from the implementation that kept one map per day, so the
// test fails if the draw, the shard streams or the day-order summation
// ever change.
func TestGenerateGoldenDigest(t *testing.T) {
	const (
		smoothed = "580f41ba32cb9a26bf482d72f9726f3da7c8a5ca0740c2211b0ee79e6a3d5190"
		day0     = "90845f9742ec70ffa1f714db57ea948b7fd83722e834efb05904ca93896c0660"
		day6     = "4b5c629775ee91fe4f97deed28e8a83e572fde786f9cb52c116f705a30c92184"
	)
	w := smallWorld(t)
	for _, par := range []int{1, 4} {
		cfg := DefaultGenConfig()
		cfg.Parallelism = par
		ds, err := Generate(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(ds); got != smoothed {
			t.Errorf("parallelism %d: Generate digest over %d blocks = %s, want %s", par, ds.Blocks(), got, smoothed)
		}
		for d, want := range map[int]string{0: day0, 6: day6} {
			ds, err := Day(w, cfg, d)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(ds); got != want {
				t.Errorf("parallelism %d: Day(%d) digest = %s, want %s", par, d, got, want)
			}
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	w := smallWorld(t)
	cfg := DefaultGenConfig()
	d1, err := Generate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Blocks() != d2.Blocks() {
		t.Fatal("block counts differ")
	}
	diff := false
	d1.Each(func(b netaddr.Block, v float64) {
		if d2.DU(b) != v {
			diff = true
		}
	})
	if diff {
		t.Error("same seed produced different DU")
	}
}

// Property: normalization always lands on TotalDU for any non-negative raw
// weights with positive sum.
func TestNormalizationProperty(t *testing.T) {
	f := func(vals []float64) bool {
		raw := make(map[netaddr.Block]float64)
		any := false
		for i, v := range vals {
			v = math.Abs(v)
			if math.IsInf(v, 0) || math.IsNaN(v) || v > 1e100 {
				continue
			}
			raw[netaddr.MakeBlock(netaddr.IPv4, uint64(i))] = v
			if v > 0 {
				any = true
			}
		}
		d, err := NewDataset(raw)
		if err != nil {
			return false
		}
		if !any {
			return d.Total() == 0
		}
		return math.Abs(d.Total()-TotalDU) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refDataset is the map-based dataset the row table replaced: raw
// weights summed in canonical block order, scaled to TotalDU, zero
// weights dropped. keys is the canonical order Each must follow.
type refDataset struct {
	du   map[netaddr.Block]float64
	keys []netaddr.Block
}

func newRefDataset(raw map[netaddr.Block]float64) refDataset {
	var all []netaddr.Block
	for b := range raw {
		all = append(all, b)
	}
	netaddr.SortBlocks(all)
	sum := 0.0
	for _, b := range all {
		sum += raw[b]
	}
	ref := refDataset{du: make(map[netaddr.Block]float64)}
	if sum == 0 {
		return ref
	}
	for _, b := range all {
		if raw[b] > 0 {
			ref.du[b] = raw[b] * (TotalDU / sum)
			ref.keys = append(ref.keys, b)
		}
	}
	return ref
}

// TestDatasetRows builds datasets from random raw maps over both families,
// with zero and tiny weights and some whose weights sum to 0, and checks
// every accessor of the row table against the map-based reference.
func TestDatasetRows(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	block := func() netaddr.Block {
		if rng.IntN(3) == 0 {
			return netaddr.MakeBlock(netaddr.IPv6, 0x2001_0000_0000+rng.Uint64N(1<<12))
		}
		return netaddr.MakeBlock(netaddr.IPv4, 1<<16+rng.Uint64N(1<<12))
	}
	var zeroSums, unequal int
	for trial := 0; trial < 300; trial++ {
		raw := make(map[netaddr.Block]float64)
		n := rng.IntN(60)
		allZero := trial%10 == 0
		for i := 0; i < n; i++ {
			var v float64
			switch k := rng.IntN(6); {
			case allZero || k == 0:
				v = 0
			case k == 1:
				v = math.SmallestNonzeroFloat64 * float64(1+rng.IntN(4))
			case k == 2:
				v = rng.Float64() * 1e-300
			default:
				v = rng.Float64() * float64(int(1)<<rng.IntN(40))
			}
			raw[block()] = v
		}
		d, err := NewDataset(raw)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefDataset(raw)
		if len(ref.keys) == 0 {
			zeroSums++
		}

		var i int
		d.Each(func(b netaddr.Block, du float64) {
			if i >= len(ref.keys) || b != ref.keys[i] || math.Float64bits(du) != math.Float64bits(ref.du[b]) {
				t.Fatalf("trial %d: Each row %d = %v %v, want the reference's", trial, i, b, du)
			}
			if row, ok := d.Row(b); !ok || row != i {
				t.Fatalf("trial %d: Row(%v) = %d,%v, want %d", trial, b, row, ok, i)
			}
			if ab, adu := d.At(i); ab != b || math.Float64bits(adu) != math.Float64bits(du) {
				t.Fatalf("trial %d: At(%d) = %v %v, want %v %v", trial, i, ab, adu, b, du)
			}
			i++
		})
		if i != len(ref.keys) || d.Blocks() != len(ref.keys) {
			t.Fatalf("trial %d: Each visited %d rows and Blocks reads %d, want %d", trial, i, d.Blocks(), len(ref.keys))
		}
		probes := []netaddr.Block{block(), block(), netaddr.MakeBlock(netaddr.IPv4, 0)}
		for b := range raw {
			probes = append(probes, b)
		}
		for _, b := range probes {
			want, has := ref.du[b]
			if _, ok := d.Row(b); ok != has || math.Float64bits(d.DU(b)) != math.Float64bits(want) {
				t.Fatalf("trial %d: %v has a row %v and DU %v, want %v %v", trial, b, ok, d.DU(b), has, want)
			}
		}
		for _, f := range []netaddr.Family{netaddr.IPv4, netaddr.IPv6} {
			want := 0
			for b := range ref.du {
				if b.Fam() == f {
					want++
				}
			}
			if got := d.CountFamily(f); got != want {
				t.Fatalf("trial %d: CountFamily(%v) = %d, want %d", trial, f, got, want)
			}
		}

		same, err := NewDataset(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Equal(same) || !same.Equal(d) {
			t.Fatalf("trial %d: a dataset differs from its rebuild", trial)
		}
		// Change one weight, then drop that block: Equal must agree with
		// comparing the references.
		for b, v := range raw {
			changed := maps.Clone(raw)
			changed[b] = v*3 + 1
			for range 2 {
				other, err := NewDataset(changed)
				if err != nil {
					t.Fatal(err)
				}
				want := maps.Equal(ref.du, newRefDataset(changed).du)
				if d.Equal(other) != want {
					t.Fatalf("trial %d: Equal = %v, want %v", trial, !want, want)
				}
				if !want {
					unequal++
				}
				delete(changed, b)
			}
			break
		}
	}
	if zeroSums == 0 || unequal == 0 {
		t.Fatalf("%d trials had weights summing to 0 and %d compared unequal: too few", zeroSums, unequal)
	}
}

func BenchmarkGenerate(b *testing.B) {
	w := smallWorld(b)
	cfg := DefaultGenConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

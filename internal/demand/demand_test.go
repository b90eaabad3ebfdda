package demand

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
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

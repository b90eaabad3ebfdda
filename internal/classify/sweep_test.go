package classify

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"testing"

	"cellspot/internal/beacon"
	"cellspot/internal/demand"
	"cellspot/internal/netaddr"
	"cellspot/internal/netinfo"
	"cellspot/internal/world"
)

// mapEvaluate is Evaluate as it ran over a detected map: the truth blocks
// sorted, each probing the map.
func mapEvaluate(detected map[netaddr.Block]bool, truth map[netaddr.Block]bool, weight func(netaddr.Block) float64) Confusion {
	blocks := make([]netaddr.Block, 0, len(truth))
	for b := range truth {
		blocks = append(blocks, b)
	}
	netaddr.SortBlocks(blocks)
	var m Confusion
	for _, b := range blocks {
		w := 1.0
		if weight != nil {
			w = weight(b)
		}
		m.Add(truth[b], detected[b], w)
	}
	return m
}

// sameBits reports whether two matrices hold bit-identical cells.
func sameBits(a, b Confusion) bool {
	bits := func(m Confusion) [4]uint64 {
		return [4]uint64{math.Float64bits(m.TP), math.Float64bits(m.FP), math.Float64bits(m.TN), math.Float64bits(m.FN)}
	}
	return bits(a) == bits(b)
}

// checkSweep compares Sweep, with demandOf and without it, and Evaluate
// over Classify with each truth against the sweep as it ran: at every
// threshold a map-walk classification and map-based evaluations. Every
// matrix must match bit for bit.
func checkSweep(t *testing.T, agg *beacon.Aggregate, truths map[string]map[netaddr.Block]bool, demandOf func(netaddr.Block) float64, ths []float64) {
	t.Helper()
	byDemand, byCount := map[string][]SweepPoint{}, map[string][]SweepPoint{}
	for name, truth := range truths {
		var err error
		if byDemand[name], err = Sweep(agg, truth, demandOf, ths); err != nil {
			t.Fatal(err)
		}
		if byCount[name], err = Sweep(agg, truth, nil, ths); err != nil {
			t.Fatal(err)
		}
		if len(byDemand[name]) != len(ths) || len(byCount[name]) != len(ths) {
			t.Fatalf("%s: %d and %d points, want %d", name, len(byDemand[name]), len(byCount[name]), len(ths))
		}
	}
	for i, th := range ths {
		c := mustNew(t, th)
		detected, oracle := c.Classify(agg), mapWalkClassify(c, agg)
		for name, truth := range truths {
			want := SweepPoint{Threshold: th, ByCount: mapEvaluate(oracle, truth, nil), ByDemand: mapEvaluate(oracle, truth, demandOf)}
			if g := byDemand[name][i]; g.Threshold != th || !sameBits(g.ByCount, want.ByCount) || !sameBits(g.ByDemand, want.ByDemand) {
				t.Fatalf("%s: Sweep at %g = %+v, want %+v", name, th, g, want)
			}
			if g := byCount[name][i]; g.Threshold != th || !sameBits(g.ByCount, want.ByCount) || g.ByDemand != (Confusion{}) {
				t.Fatalf("%s: Sweep without demand at %g = %+v, want %+v", name, th, g, want.ByCount)
			}
			if m := Evaluate(detected, truth, nil); !sameBits(m, want.ByCount) {
				t.Fatalf("%s: Evaluate at %g = %+v, want %+v", name, th, m, want.ByCount)
			}
			if m := Evaluate(detected, truth, demandOf); !sameBits(m, want.ByDemand) {
				t.Fatalf("%s: weighted Evaluate at %g = %+v, want %+v", name, th, m, want.ByDemand)
			}
		}
	}
}

// TestSweepMatchesEvaluateOracle checks Sweep and Evaluate against the
// map-based evaluation they replace: on the carrier truth of several
// operators of generated worlds, with and without demand weights, and on
// a fixture whose truth names blocks BEACON never saw and blocks with no
// API-enabled hits, grown in arrival order.
func TestSweepMatchesEvaluateOracle(t *testing.T) {
	ths := append(ThresholdRange(25), 0.5, 0.333, 1)
	for seed := uint64(1); seed <= 2; seed++ {
		wcfg := world.DefaultConfig()
		wcfg.Seed, wcfg.Scale = seed, 0.005
		w, err := world.Generate(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		bcfg := beacon.DefaultGenConfig()
		bcfg.Seed = seed
		agg, err := beacon.Generate(w, bcfg)
		if err != nil {
			t.Fatal(err)
		}
		dcfg := demand.DefaultGenConfig()
		dcfg.Seed = seed
		ds, err := demand.Generate(w, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		truths := map[string]map[netaddr.Block]bool{}
		ops := append(slices.Clone(w.CellOperators[:min(4, len(w.CellOperators))]), w.Operators[:min(3, len(w.Operators))]...)
		for i, op := range ops {
			// Odd ones list idle inventory too, blocks BEACON may not see.
			truths[fmt.Sprintf("seed %d %s", seed, op.AS.Name)] = w.CarrierTruth(op, i%2 == 1)
		}
		checkSweep(t, agg, truths, ds.DU, ths)
	}

	// The fixture: arrival order, so the rows are not canonical.
	unordered := beacon.NewAggregate()
	add := func(b netaddr.Block, n int, conn netinfo.ConnectionType) {
		for range n {
			r := beacon.Record{IP: b.HostAddr(1)}
			if conn != netinfo.ConnUnknown {
				r.Conn = conn.String()
			}
			unordered.AddRecord(r)
		}
	}
	var (
		v6      = netaddr.V6Block(0x20010db80007)
		cell    = netaddr.V4Block(10, 0, 9)
		mixed   = netaddr.V4Block(10, 0, 3)
		fixed   = netaddr.V4Block(10, 0, 1)
		noAPI   = netaddr.V4Block(10, 0, 5)
		unseen  = netaddr.V4Block(10, 0, 7)
		unseen6 = netaddr.V6Block(0x20010db80001)
	)
	add(v6, 4, netinfo.ConnCellular)
	add(cell, 9, netinfo.ConnCellular)
	add(cell, 1, netinfo.ConnWiFi)
	add(mixed, 2, netinfo.ConnCellular)
	add(mixed, 3, netinfo.ConnWiFi)
	add(fixed, 5, netinfo.ConnWiFi)
	add(noAPI, 7, netinfo.ConnUnknown)
	add(netaddr.V4Block(10, 0, 0), 3, netinfo.ConnCellular) // detected, not in truth
	if unordered.Sorted() {
		t.Fatal("fixture aggregate is in canonical order; it must exercise the unordered path")
	}
	truth := map[netaddr.Block]bool{
		v6: true, cell: true, mixed: true, fixed: false, noAPI: true, unseen: true, unseen6: false,
	}
	du := map[netaddr.Block]float64{v6: 0.25, cell: 3.5, mixed: 1.0 / 3, fixed: 7, noAPI: 0.1, unseen: 2}
	demandOf := func(b netaddr.Block) float64 { return du[b] }
	sorted := beacon.Sum([]*beacon.Aggregate{unordered})
	checkSweep(t, unordered, map[string]map[netaddr.Block]bool{"unordered fixture": truth}, demandOf, ths)
	checkSweep(t, sorted, map[string]map[netaddr.Block]bool{"summed fixture": truth}, demandOf, ths)
	for _, th := range ths {
		c := mustNew(t, th)
		if got, want := slices.Collect(c.Classify(unordered).All()), slices.Collect(c.Classify(sorted).All()); !slices.Equal(got, want) {
			t.Errorf("Classify at %g: unordered aggregate gives %v, its sum %v", th, got, want)
		}
	}
	if got := slices.Collect(mustNew(t, 0.5).Classify(unordered).All()); !slices.Equal(got, []netaddr.Block{netaddr.V4Block(10, 0, 0), cell, v6}) {
		t.Errorf("Classify at 0.5 = %v", got)
	}
}

func mustNew(t *testing.T, th float64) Classifier {
	t.Helper()
	c, err := New(th)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCalibrateTieGoesLower gives every threshold the same F1 and lists
// the thresholds in descending order: the lower one must win.
func TestCalibrateTieGoesLower(t *testing.T) {
	a := beacon.NewAggregate()
	b := netaddr.BlockFromAddr(netip.MustParseAddr("10.0.0.1"))
	a.Add(b, 10, 10, 10) // ratio 1: detected at every threshold
	truth := map[netaddr.Block]bool{b: true}
	for _, byDemand := range []bool{false, true} {
		best, err := Calibrate(a, truth, func(netaddr.Block) float64 { return 1 }, []float64{0.9, 0.5, 0.7}, byDemand)
		if err != nil {
			t.Fatal(err)
		}
		if best.Threshold != 0.5 {
			t.Errorf("byDemand %v: tie went to %g, want the lowest threshold 0.5", byDemand, best.Threshold)
		}
	}
}

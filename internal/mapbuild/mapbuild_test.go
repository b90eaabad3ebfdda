package mapbuild

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"

	"cellspot/internal/aschar"
	"cellspot/internal/asn"
	"cellspot/internal/beacon"
	"cellspot/internal/cellmap"
	"cellspot/internal/classify"
	"cellspot/internal/demand"
	"cellspot/internal/netaddr"
)

// oracleStats is aschar.BuildStats as a single pass over every demand
// block followed by the beacon aggregate: the reference the rollup split
// must reproduce bit for bit.
func oracleStats(in aschar.Inputs) map[uint32]*aschar.Stats {
	stats := make(map[uint32]*aschar.Stats)
	get := func(a uint32) *aschar.Stats {
		s := stats[a]
		if s == nil {
			s = &aschar.Stats{ASN: a}
			stats[a] = s
		}
		return s
	}
	addCell := func(s *aschar.Stats, b netaddr.Block) {
		s.CellBlocks++
		if b.IsV6() {
			s.CellBlocks48++
		} else {
			s.CellBlocks24++
		}
	}
	seen := make(netaddr.Set)
	if in.Demand != nil {
		in.Demand.Each(func(b netaddr.Block, du float64) {
			a, ok := in.ASOf(b)
			if !ok {
				return
			}
			s := get(a)
			s.Blocks++
			s.TotalDU += du
			seen.Add(b)
			if in.Detected.Has(b) {
				addCell(s, b)
				s.CellDU += du
			}
		})
	}
	if in.Beacon != nil {
		for i := range in.Beacon.Blocks() {
			b, c := in.Beacon.At(i)
			a, ok := in.ASOf(b)
			if !ok {
				continue
			}
			s := get(a)
			s.Hits += c.Hits
			s.APIHits += c.API
			s.CellHits += c.Cell
			if !seen.Has(b) {
				s.Blocks++
				if in.Detected.Has(b) {
					addCell(s, b)
				}
			}
		}
	}
	return stats
}

// oracleMap is the one-shot chain over oracleStats, written out.
func oracleMap(t *testing.T, agg *beacon.Aggregate, threshold float64, period string, in Inputs) []byte {
	t.Helper()
	cls, err := classify.New(threshold)
	if err != nil {
		t.Fatal(err)
	}
	detected := cls.Classify(agg)
	fr := aschar.Filter(oracleStats(aschar.Inputs{Detected: detected, Beacon: agg, Demand: in.Demand, ASOf: in.ASOf}), in.Rules)
	allowed := make(map[uint32]bool)
	for _, a := range fr.AfterRule3 {
		allowed[a] = true
	}
	kept := make(netaddr.Set)
	for b := range detected {
		if a, ok := in.ASOf(b); ok && allowed[a] {
			kept.Add(b)
		}
	}
	m, err := cellmap.Build(threshold, period, cellmap.Inputs{
		Detected: kept, Beacon: agg, Demand: in.Demand, ASOf: in.ASOf, CountryOf: in.CountryOf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mapBytes(t, m)
}

func mapBytes(t *testing.T, m *cellmap.Map) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// world is a synthetic measurement setting: ASes of every class owning
// v4 and v6 blocks, most with demand, plus blocks no AS announces.
type world struct {
	in       Inputs
	owned    []netaddr.Block // mapped blocks
	unmapped []netaddr.Block
}

func newWorld(t *testing.T, seed uint64) world {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 1))
	asOf := make(map[netaddr.Block]uint32)
	raw := make(map[netaddr.Block]float64)
	var w world
	var ases []asn.AS
	classes := []asn.Class{asn.ClassTransitAccess, asn.ClassEnterprise, asn.ClassContent}
	for a := uint32(1); a <= 40; a++ {
		ases = append(ases, asn.AS{Number: a, Class: classes[a%3], Country: "C" + string(rune('A'+a%26))})
		for i := 0; i < 10+rng.IntN(30); i++ {
			var b netaddr.Block
			if rng.IntN(4) == 0 {
				b = netaddr.MakeBlock(netaddr.IPv6, uint64(a)<<20|uint64(i))
			} else {
				b = netaddr.V4Block(byte(a), byte(i/256), byte(i))
			}
			asOf[b] = a
			w.owned = append(w.owned, b)
			if rng.IntN(5) != 0 {
				// Spread demand over orders of magnitude so the order of
				// float additions matters.
				raw[b] = rng.Float64() * float64(int(1)<<rng.IntN(30))
			}
		}
	}
	for i := 0; i < 20; i++ {
		b := netaddr.V4Block(200, 0, byte(i))
		w.unmapped = append(w.unmapped, b)
		raw[b] = rng.Float64() * 100
	}
	ds, err := demand.NewDataset(raw)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := asn.NewRegistry(ases)
	if err != nil {
		t.Fatal(err)
	}
	w.in = Inputs{
		Demand: ds,
		Rules:  aschar.Rules{MinCellDU: 0.01, MinHits: 50, Snapshot: asn.BuildSnapshot(reg)},
		ASOf: func(b netaddr.Block) (uint32, bool) {
			a, ok := asOf[b]
			return a, ok
		},
		CountryOf: func(a uint32) (string, bool) {
			as, ok := reg.Lookup(a)
			if !ok {
				return "", false
			}
			return as.Country, true
		},
	}
	return w
}

// aggregates returns a sequence of beacon aggregates over the world: two
// random windows, an empty one, one whose only cellular blocks carry no
// demand, and one touching unmapped blocks only.
func (w world) aggregates(seed uint64) []*beacon.Aggregate {
	rng := rand.New(rand.NewPCG(seed, 2))
	random := func() *beacon.Aggregate {
		agg := beacon.NewAggregate()
		for _, b := range w.owned {
			if rng.IntN(3) == 0 {
				continue
			}
			api := 1 + rng.IntN(40)
			agg.Add(b, api+rng.IntN(40), api, rng.IntN(api+1))
		}
		for _, b := range w.unmapped[:5] {
			agg.Add(b, 30, 30, 30)
		}
		return agg
	}
	beaconOnly := beacon.NewAggregate()
	for _, b := range w.owned {
		if _, ok := w.in.Demand.Row(b); !ok {
			beaconOnly.Add(b, 100, 100, 90)
		} else {
			beaconOnly.Add(b, 100, 100, 0)
		}
	}
	unmapped := beacon.NewAggregate()
	for _, b := range w.unmapped {
		unmapped.Add(b, 100, 100, 100)
	}
	return []*beacon.Aggregate{random(), random(), beacon.NewAggregate(), beaconOnly, unmapped, random()}
}

// TestBuilderMatchesSinglePassOracle: one prepared Builder, reused across
// a sequence of aggregates, publishes the bytes the single-pass chain
// publishes, and aschar.BuildStats returns the single-pass Stats exactly.
func TestBuilderMatchesSinglePassOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		w := newWorld(t, seed)
		noDemand := w.in
		noDemand.Demand = nil
		noDemand.Rules.MinCellDU = 0 // no demand: rule 1 would drop every AS
		for name, in := range map[string]Inputs{"demand": w.in, "nil demand": noDemand} {
			bd, err := New(classify.DefaultThreshold, in)
			if err != nil {
				t.Fatal(err)
			}
			var withDemand, beaconOnly, entries int
			for i, agg := range w.aggregates(seed) {
				m, err := bd.Build(agg, "test")
				if err != nil {
					t.Fatal(err)
				}
				got := mapBytes(t, m)
				if want := oracleMap(t, agg, classify.DefaultThreshold, "test", in); !bytes.Equal(got, want) {
					t.Fatalf("seed %d %s aggregate %d: prepared map differs from the single-pass oracle\n got %s\nwant %s",
						seed, name, i, got, want)
				}
				entries += m.Len()

				cls, _ := classify.New(classify.DefaultThreshold)
				sin := aschar.Inputs{Detected: cls.Classify(agg), Beacon: agg, Demand: in.Demand, ASOf: in.ASOf}
				if got, want := aschar.BuildStats(sin), oracleStats(sin); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s aggregate %d: BuildStats differs from the single-pass oracle", seed, name, i)
				}
				for b := range sin.Detected {
					if _, ok := in.ASOf(b); !ok {
						continue
					}
					if in.Demand == nil {
						beaconOnly++
					} else if _, ok := in.Demand.Row(b); ok {
						withDemand++
					} else {
						beaconOnly++
					}
				}
			}
			if entries == 0 || beaconOnly == 0 || (in.Demand != nil && withDemand == 0) {
				t.Fatalf("seed %d %s: vacuous sequence (entries %d, detected with demand %d, beacon-only %d)",
					seed, name, entries, withDemand, beaconOnly)
			}
		}
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(0.5, Inputs{}); err == nil {
		t.Error("nil ASOf accepted")
	}
	asOf := func(netaddr.Block) (uint32, bool) { return 1, true }
	for _, th := range []float64{0, -0.1, 1.5} {
		if _, err := New(th, Inputs{ASOf: asOf}); err == nil {
			t.Errorf("threshold %g accepted", th)
		}
	}
	if _, err := Build(beacon.NewAggregate(), 0.5, "p", Inputs{}); err == nil {
		t.Error("Build accepted nil ASOf")
	}
}

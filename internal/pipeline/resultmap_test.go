package pipeline

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"cellspot/internal/aschar"
	"cellspot/internal/cellmap"
	"cellspot/internal/mapbuild"
	"cellspot/internal/netaddr"
)

// TestPublishedMapIsASFiltered builds the map that `cellspot export` and
// X2 publish, on Scale-0.01 worlds of seeds 1–3. Its blocks must be
// exactly the detected blocks whose AS passes the AS filter (4,061 of
// 5,292 at seed 1), X2 must report its prefix count, and with the default
// config its bytes must equal mapbuild.Build under aschar.DefaultRules.
func TestPublishedMapIsASFiltered(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.World.Scale, cfg.World.Seed = 0.01, seed
		env := NewEnv(cfg)
		r, err := env.Global()
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Map("2016-12")
		if err != nil {
			t.Fatal(err)
		}

		cellASes := make(map[uint32]bool, len(r.Filter.AfterRule3))
		for _, a := range r.Filter.AfterRule3 {
			cellASes[a] = true
		}
		want := make(netaddr.Set)
		for b := range r.Detected {
			if a, ok := r.World.ASOf(b); ok && cellASes[a] {
				want.Add(b)
			}
		}
		if want.Len() == 0 || want.Len() == r.Detected.Len() {
			t.Fatalf("seed %d: the AS filter keeps %d of %d detected blocks; want some but not all",
				seed, want.Len(), r.Detected.Len())
		}
		got := make(netaddr.Set)
		for _, e := range m.Entries() {
			blocks, ok := netaddr.ExpandPrefix(e.Prefix)
			if !ok {
				t.Fatalf("seed %d: cannot expand %s", seed, e.Prefix)
			}
			for _, b := range blocks {
				got.Add(b)
			}
		}
		if !maps.Equal(got, want) {
			t.Errorf("seed %d: map covers %d blocks, want the %d detected blocks of filtered ASes",
				seed, got.Len(), want.Len())
		}

		out, err := experimentX2(env)
		if err != nil {
			t.Fatal(err)
		}
		if p := out.Metrics["published_prefixes"]; p != float64(m.Len()) {
			t.Errorf("seed %d: X2 publishes %v prefixes, the map has %d", seed, p, m.Len())
		}

		ref, err := mapbuild.Build(r.Beacon, cfg.Threshold, "2016-12", mapbuild.Inputs{
			Demand:    r.Demand,
			Rules:     aschar.DefaultRules(r.World.Snapshot),
			ASOf:      r.ASOf,
			CountryOf: r.CountryOf,
		})
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := m.Write(&a); err != nil {
			t.Fatal(err)
		}
		if err := ref.Write(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("seed %d: map differs from mapbuild.Build under aschar.DefaultRules", seed)
		}
	}
}

func mapBytes(t *testing.T, m *cellmap.Map) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resultMapBytes is r.Map, written out.
func resultMapBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	m, err := r.Map("2016-12")
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() == 0 {
		t.Fatal("empty map")
	}
	return mapBytes(t, m)
}

// TestResultMapMatchesMapbuild: the map Result.Map assembles from the
// run's own detected set and AS-filter verdict has the bytes of the
// one-shot mapbuild.Build, which classifies the BEACON aggregate and
// filters the ASes again, on Scale-0.01 worlds of seeds 1–3 and under a
// config whose threshold and filter rules are not the paper's.
func TestResultMapMatchesMapbuild(t *testing.T) {
	type run struct {
		name string
		cfg  Config
	}
	var runs []run
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.World.Scale, cfg.World.Seed = 0.01, seed
		runs = append(runs, run{fmt.Sprintf("seed %d", seed), cfg})
	}
	odd := runs[0].cfg
	odd.Threshold, odd.MinHits, odd.MinCellDU = 0.6, 100, 0.05
	runs = append(runs, run{"seed 1, threshold 0.6, MinHits 100, MinCellDU 0.05", odd})

	var seed1 []byte
	for i, rc := range runs {
		r, err := Run(rc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mapbuild.Build(r.Beacon, rc.cfg.Threshold, "2016-12", mapbuild.Inputs{
			Demand:    r.Demand,
			Rules:     aschar.Rules{MinCellDU: rc.cfg.MinCellDU, MinHits: rc.cfg.MinHits, Snapshot: r.World.Snapshot},
			ASOf:      r.World.ASOf,
			CountryOf: r.World.CountryOf,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := resultMapBytes(t, r)
		if !bytes.Equal(got, mapBytes(t, want)) {
			t.Errorf("%s: Result.Map differs from mapbuild.Build", rc.name)
		}
		if i == 0 {
			seed1 = got
		} else if i == len(runs)-1 && bytes.Equal(got, seed1) {
			t.Errorf("%s: map equals seed 1's under the default config; the config changes nothing", rc.name)
		}
	}
}

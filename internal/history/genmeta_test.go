package history

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cellspot/internal/cellmap"
	"cellspot/internal/snapshot"
)

// TestWriteGenerationDerivesMeta: the sidecar WriteGeneration writes takes
// its entry count, period, threshold and RAT flag from the map itself, for
// a map with the RAT column and one without, and the index reads it back
// unchanged.
func TestWriteGenerationDerivesMeta(t *testing.T) {
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	withRAT := baseEntries()
	withRAT[0].rat = []float64{0.2, 0.7, 0.1}
	cases := []struct {
		m                 *cellmap.Map
		dayFirst, dayLast string
	}{
		{mkMap(t, "live:2016-12-25..2016-12-31", withRAT), "2016-12-25", "2016-12-31"},
		{mkMap(t, "2017-01", baseEntries()[:1]), "", ""},
	}
	before := time.Now().Unix()
	written := make([]GenMeta, len(cases))
	for i, c := range cases {
		gen, err := store.Publish(func(dir string) error {
			return WriteGeneration(dir, c.m, c.dayFirst, c.dayLast)
		})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(gen.Path(MetaFile))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &written[i]); err != nil {
			t.Fatal(err)
		}
		got := written[i]
		if got.Format != metaFormat || got.Entries != c.m.Len() || got.Period != c.m.Period ||
			got.Threshold != c.m.Threshold || got.RAT != c.m.HasRAT() {
			t.Errorf("gen %d sidecar = %+v, map has %d entries, period %q, threshold %g, RAT %v",
				gen.Seq, got, c.m.Len(), c.m.Period, c.m.Threshold, c.m.HasRAT())
		}
		if got.DayFirst != c.dayFirst || got.DayLast != c.dayLast {
			t.Errorf("gen %d day range = %q..%q, want %q..%q", gen.Seq, got.DayFirst, got.DayLast, c.dayFirst, c.dayLast)
		}
		if got.BuiltUnix < before || got.BuiltUnix > time.Now().Unix() {
			t.Errorf("gen %d built_unix %d outside the publish", gen.Seq, got.BuiltUnix)
		}
		m, err := cellmap.ReadFile(gen.Path(MapFile))
		if err != nil {
			t.Fatal(err)
		}
		if m.Len() != c.m.Len() || m.HasRAT() != c.m.HasRAT() {
			t.Errorf("gen %d map read back with %d entries, RAT %v", gen.Seq, m.Len(), m.HasRAT())
		}
	}
	if !written[0].RAT || written[1].RAT {
		t.Fatalf("RAT flags = %v, %v; want true, false", written[0].RAT, written[1].RAT)
	}

	ix, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	gens := ix.Generations()
	if len(gens) != len(cases) {
		t.Fatalf("index holds %d generations, want %d", len(gens), len(cases))
	}
	for i, gi := range gens {
		if gi.Meta != written[i] {
			t.Errorf("index meta of gen %d = %+v, sidecar %+v", gi.Seq, gi.Meta, written[i])
		}
	}
}

// FuzzReadMeta feeds arbitrary meta.json bytes next to a valid map. The
// read never panics; a sidecar is taken only when it decodes and names
// the genmeta format, and any other sidecar falls back to the map
// header's entries, period and threshold.
func FuzzReadMeta(f *testing.F) {
	m := mkMap(f, "2016-11", baseEntries())
	seedDir := f.TempDir()
	if err := WriteGeneration(seedDir, m, "2016-11-01", "2016-11-07"); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(seedDir, MetaFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte("null"))
	f.Add([]byte(`{"format":"cellspot-genmeta/1"}`))
	f.Add([]byte(`{"format":"cellspot-genmeta/2","entries":9}`))
	f.Add([]byte(`{"format":"cellspot-genmeta/1","entries":"2"}`))
	f.Add([]byte(`{"FORMAT":"cellspot-genmeta/1","entries":7,"rat":true}`))
	f.Add([]byte(`[{"format":"cellspot-genmeta/1"}]`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := m.WriteFile(filepath.Join(dir, MapFile)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, MetaFile), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := readMeta(snapshot.Generation{Seq: 1, Dir: dir})
		if err != nil {
			t.Fatalf("readMeta with a valid map: %v", err)
		}
		var want GenMeta
		if json.Unmarshal(raw, &want) == nil && want.Format == metaFormat {
			if got != want {
				t.Fatalf("accepted sidecar read as %+v, decodes to %+v", got, want)
			}
			return
		}
		if got.Format != "" || got.Entries != m.Len() || got.Period != m.Period ||
			got.Threshold != m.Threshold || got.RAT || got.DayFirst != "" || got.DayLast != "" {
			t.Fatalf("rejected sidecar %q read as %+v, want the map header's", raw, got)
		}
	})
}

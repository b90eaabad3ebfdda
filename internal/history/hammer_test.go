package history

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"cellspot/internal/cellmap"
	"cellspot/internal/snapshot"
)

// TestHistoryPruneHammer is the -race gate for the history index: a
// publisher staggering new generations, a pruner tightening retention, a
// refresher (the serving node's swap poller), and many readers doing gen=N
// lookups and full /v1/history walks — all concurrently. Every lookup must
// either return the generation's exact content (the entry's ASN encodes
// the seq, so a cross-generation mixup is detectable) or fail with a clean
// PrunedError; any other error is a torn read.
func TestHistoryPruneHammer(t *testing.T) {
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	genEntries := func(seq uint64) []hEntry {
		return []hEntry{{
			prefix: "10.0.0.0/24", asn: uint32(1000 + seq),
			ratio: float64(seq%100) / 100, du: 1, country: "DE",
			rat: []float64{0.2, 0.7, 0.1},
		}}
	}
	publish := func(expect uint64) {
		gen, err := store.Publish(func(dir string) error {
			if err := os.WriteFile(filepath.Join(dir, MapFile),
				[]byte(mapJSONL(t, fmt.Sprintf("p%d", expect), genEntries(expect))), 0o644); err != nil {
				return err
			}
			return writeMeta(dir, GenMeta{Entries: 1, Period: fmt.Sprintf("p%d", expect), Threshold: 0.5, RAT: true})
		})
		if err != nil {
			t.Errorf("publish %d: %v", expect, err)
			return
		}
		if gen.Seq != expect {
			t.Errorf("publish allocated seq %d, want %d", gen.Seq, expect)
		}
	}
	publish(1)

	ix, err := New(Config{Store: store, MaxResident: 3})
	if err != nil {
		t.Fatal(err)
	}

	const totalGens = 40
	var latest atomic.Uint64
	latest.Store(1)
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1) // publisher: staggered generations 2..totalGens
	go func() {
		defer wg.Done()
		defer close(done)
		for seq := uint64(2); seq <= totalGens; seq++ {
			publish(seq)
			latest.Store(seq)
		}
	}()

	wg.Add(1) // pruner: keeps tightening retention under the readers
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := store.Prune(4); err != nil {
				t.Errorf("prune: %v", err)
				return
			}
		}
	}()

	wg.Add(1) // refresher: the serving node's swap-poll rescan
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := ix.Refresh(); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
		}
	}()

	for r := 0; r < 4; r++ { // gen=N readers
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				seq := uint64(rng.Int63n(int64(latest.Load()))) + 1
				m, err := ix.At(seq)
				if err != nil {
					var perr *cellmap.PrunedError
					if errors.As(err, &perr) {
						continue // cleanly pruned: the allowed outcome
					}
					t.Errorf("At(%d): torn read: %v", seq, err)
					return
				}
				e, ok := m.Lookup(mustAddr(t, "10.0.0.9"))
				if !ok || e.ASN != uint32(1000+seq) {
					t.Errorf("At(%d) served wrong content: ok=%v asn=%d", seq, ok, e.ASN)
					return
				}
			}
		}(r)
	}

	for r := 0; r < 2; r++ { // /v1/history walkers
		wg.Add(1)
		go func() {
			defer wg.Done()
			addr := mustAddr(t, "10.0.0.9")
			for {
				select {
				case <-done:
					return
				default:
				}
				tl, err := ix.Timeline(addr, "10.0.0.9")
				if err != nil {
					t.Errorf("timeline: %v", err)
					return
				}
				// Every change-point's content must match its generation:
				// the ASN encodes the seq by construction.
				for _, c := range tl.Changes {
					if !c.Cellular || c.ASN != uint32(1000+c.Generation) {
						t.Errorf("timeline point mixes generations: %+v", c)
						return
					}
				}
			}
		}()
	}

	wg.Wait()

	// Quiesced store: whatever survived the final prunes still answers.
	if err := ix.Refresh(); err != nil {
		t.Fatal(err)
	}
	gens := ix.Generations()
	if len(gens) == 0 {
		t.Fatal("no generations retained after hammer")
	}
	for _, gi := range gens {
		m, err := ix.At(gi.Seq)
		if err != nil {
			t.Fatalf("post-hammer At(%d): %v", gi.Seq, err)
		}
		if e, ok := m.Lookup(mustAddr(t, "10.0.0.9")); !ok || e.ASN != uint32(1000+gi.Seq) {
			t.Fatalf("post-hammer gen %d content wrong", gi.Seq)
		}
	}
	// No pins may leak: after the hammer every surviving old generation is
	// prunable again.
	if _, err := store.Prune(1); err != nil {
		t.Fatal(err)
	}
	if err := ix.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := len(ix.Generations()); got != 1 {
		t.Errorf("after Prune(1) %d generations survive — leaked pins?", got)
	}
}

package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func publishFile(t *testing.T, s *Store, name, content string) Generation {
	t.Helper()
	g, err := s.Publish(func(dir string) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
	})
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	return g
}

func TestPublishAndCurrent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Current(); err != nil || ok {
		t.Fatalf("empty store Current = ok=%v err=%v, want ok=false err=nil", ok, err)
	}

	g1 := publishFile(t, s, "map.jsonl", "one\n")
	if g1.Seq != 1 {
		t.Fatalf("first generation seq = %d, want 1", g1.Seq)
	}
	g2 := publishFile(t, s, "map.jsonl", "two\n")
	if g2.Seq != 2 {
		t.Fatalf("second generation seq = %d, want 2", g2.Seq)
	}

	cur, ok, err := s.Current()
	if err != nil || !ok {
		t.Fatalf("Current: ok=%v err=%v", ok, err)
	}
	if cur.Seq != 2 {
		t.Fatalf("Current seq = %d, want 2", cur.Seq)
	}
	body, err := os.ReadFile(cur.Path("map.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "two\n" {
		t.Fatalf("current map.jsonl = %q, want %q", body, "two\n")
	}
	// Generation 1 is still fully readable until pruned.
	if _, err := os.ReadFile(g1.Path("map.jsonl")); err != nil {
		t.Fatalf("old generation unreadable: %v", err)
	}
}

func TestPublishFailureLeavesStoreUnchanged(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	publishFile(t, s, "map.jsonl", "one\n")
	if _, err := s.Publish(func(dir string) error {
		return fmt.Errorf("builder exploded")
	}); err == nil {
		t.Fatal("Publish with failing writer succeeded")
	}
	cur, ok, err := s.Current()
	if err != nil || !ok || cur.Seq != 1 {
		t.Fatalf("after failed publish: cur=%+v ok=%v err=%v, want seq 1", cur, ok, err)
	}
	// No staging debris.
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "CURRENT" && e.Name() != "gen-00000001" {
			t.Fatalf("unexpected store entry %q", e.Name())
		}
	}
}

func TestOpenSweepsStaging(t *testing.T) {
	dir := t.TempDir()
	// Simulate a crash mid-publish: a staging dir with a half-written file.
	if err := os.MkdirAll(filepath.Join(dir, ".tmp-gen-00000007"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-gen-00000007", "map.jsonl"), []byte("part"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-gen-00000007")); !os.IsNotExist(err) {
		t.Fatalf("staging dir survived Open: err=%v", err)
	}
	if _, ok, err := s.Current(); err != nil || ok {
		t.Fatalf("store with only debris: ok=%v err=%v", ok, err)
	}
}

func TestOrphanGenerationIsInertAndSequenceAdvances(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	publishFile(t, s, "map.jsonl", "one\n")
	// Crash between the generation rename and the CURRENT flip: gen-2
	// exists, CURRENT still names gen-1.
	if err := os.MkdirAll(filepath.Join(dir, "gen-00000002"), 0o755); err != nil {
		t.Fatal(err)
	}
	cur, ok, err := s.Current()
	if err != nil || !ok || cur.Seq != 1 {
		t.Fatalf("Current with orphan: %+v ok=%v err=%v, want seq 1", cur, ok, err)
	}
	// The next publish must not collide with the orphan.
	g := publishFile(t, s, "map.jsonl", "three\n")
	if g.Seq != 3 {
		t.Fatalf("publish over orphan seq = %d, want 3", g.Seq)
	}
}

func TestCurrentCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "CURRENT"), []byte("gen-00000009\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Current(); err == nil {
		t.Fatal("CURRENT naming a missing generation did not error")
	}
	if err := os.WriteFile(filepath.Join(dir, "CURRENT"), []byte("not-a-gen\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Current(); err == nil {
		t.Fatal("malformed CURRENT did not error")
	}
}

func TestPrune(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		publishFile(t, s, "map.jsonl", fmt.Sprintf("v%d\n", i+1))
	}
	removed, err := s.Prune(2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("Prune removed %d, want 3", removed)
	}
	gens, err := s.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0].Seq != 4 || gens[1].Seq != 5 {
		t.Fatalf("after prune: %+v, want seqs 4,5", gens)
	}
	// keep=0 still refuses to remove the serving generation.
	if _, err := s.Prune(0); err != nil {
		t.Fatal(err)
	}
	cur, ok, err := s.Current()
	if err != nil || !ok || cur.Seq != 5 {
		t.Fatalf("current pruned away: %+v ok=%v err=%v", cur, ok, err)
	}
	if _, err := os.Stat(cur.Dir); err != nil {
		t.Fatalf("current generation dir missing: %v", err)
	}
}

func TestGenerationsOrder(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		publishFile(t, s, "f", "x")
	}
	gens, err := s.Generations()
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range gens {
		if g.Seq != uint64(i+1) {
			t.Fatalf("generation %d has seq %d", i, g.Seq)
		}
		if g.Name() != fmt.Sprintf("gen-%08d", i+1) {
			t.Fatalf("generation name %q", g.Name())
		}
	}
}

// TestPruneRespectsPins is the regression test for the history-serving race:
// before pin semantics existed, Prune would RemoveAll a generation while a
// /v1/lookup?gen=N reader was mid-read, handing the reader a torn file.
func TestPruneRespectsPins(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		publishFile(t, s, "map.jsonl", fmt.Sprintf("v%d\n", i+1))
	}

	pinned, ok := s.Pin(2)
	if !ok {
		t.Fatal("Pin(2) on a retained generation failed")
	}
	if _, ok := s.Pin(9); ok {
		t.Fatal("Pin(9) on a never-published generation succeeded")
	}

	removed, err := s.Prune(1)
	if err != nil {
		t.Fatal(err)
	}
	// Gens 1, 3, 4 removed; 2 pinned; 5 is CURRENT.
	if removed != 3 {
		t.Fatalf("Prune removed %d, want 3", removed)
	}
	if body, err := os.ReadFile(pinned.Path("map.jsonl")); err != nil || string(body) != "v2\n" {
		t.Fatalf("pinned generation torn: body=%q err=%v", body, err)
	}

	// A second pin on the same seq keeps it alive until both release.
	if _, ok := s.Pin(2); !ok {
		t.Fatal("second Pin(2) failed")
	}
	s.Unpin(2)
	if _, err := s.Prune(1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(pinned.Dir); err != nil {
		t.Fatalf("generation with one remaining pin removed: %v", err)
	}

	// After the last Unpin the generation becomes prunable again.
	s.Unpin(2)
	s.Unpin(2) // over-release is a no-op
	removed, err = s.Prune(1)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("post-unpin Prune removed %d, want 1", removed)
	}
	if _, err := os.Stat(pinned.Dir); !os.IsNotExist(err) {
		t.Fatalf("unpinned generation survived Prune: err=%v", err)
	}
	// Pinning a pruned seq now fails cleanly instead of resurrecting it.
	if _, ok := s.Pin(2); ok {
		t.Fatal("Pin(2) after prune succeeded")
	}
}

// TestGenerationsOrderWithDebris checks Generations() against the messes a
// crashed publisher leaves behind: orphan generations newer than CURRENT,
// .tmp staging directories, and stray non-generation entries.
func TestGenerationsOrderWithDebris(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		publishFile(t, s, "f", "x")
	}
	// Orphan generation above CURRENT (crash between the two renames).
	if err := os.MkdirAll(filepath.Join(dir, "gen-00000007"), 0o755); err != nil {
		t.Fatal(err)
	}
	// In-flight staging directory (publish racing the listing).
	if err := os.MkdirAll(filepath.Join(dir, ".tmp-gen-00000008"), 0o755); err != nil {
		t.Fatal(err)
	}
	// Stray entries that merely look similar.
	if err := os.MkdirAll(filepath.Join(dir, "gen-notanumber"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "gen-00000099"), []byte("a file, not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}

	gens, err := s.Generations()
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3, 7}
	if len(gens) != len(want) {
		t.Fatalf("Generations() = %+v, want seqs %v", gens, want)
	}
	for i, g := range gens {
		if g.Seq != want[i] {
			t.Fatalf("Generations()[%d].Seq = %d, want %v", i, g.Seq, want)
		}
	}
	// The orphan is inert for Current and skipped by the next publish's
	// numbering, but present in the ascending listing above.
	if cur, ok, err := s.Current(); err != nil || !ok || cur.Seq != 3 {
		t.Fatalf("Current with debris: %+v ok=%v err=%v, want seq 3", cur, ok, err)
	}
}

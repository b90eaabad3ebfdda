package logio

import (
	"errors"
	"os"
	"strings"
	"testing"

	"cellspot/internal/faultline"
)

type faultRec struct {
	N int `json:"n"`
}

// A crash at the seal rename must leave only a .part file — never a sealed
// shard a reader could observe half-written — and a restarted spool must
// sweep the debris and resume numbering without rewriting sealed bytes.
func TestSpoolSealCrashLeavesNoTornShard(t *testing.T) {
	dir := t.TempDir()
	inj := &faultline.StepInjector{
		N: 1, D: faultline.Decision{Crash: true},
		Filter: func(op faultline.Op) bool { return op.Kind == "rename" },
	}
	ffs := faultline.NewFaultFS(faultline.OS(), inj, dir, nil)
	sp := NewSpool(dir, "beacon", false, 2)
	sp.SetFS(ffs)

	var sealErr error
	for i := 0; i < 4; i++ {
		if err := writeJSON(sp, faultRec{N: i}); err != nil {
			sealErr = err
			break
		}
	}
	if !errors.Is(sealErr, faultline.ErrCrashed) {
		t.Fatalf("seal err = %v, want ErrCrashed", sealErr)
	}

	// No sealed shard is visible; the bytes live only in .part debris.
	files, err := SpoolFiles(dir, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("crashed seal published shards: %v", files)
	}
	entries, _ := os.ReadDir(dir)
	parts := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), PartSuffix) {
			parts++
		}
	}
	if parts != 1 {
		t.Fatalf("want exactly 1 .part debris file, got %d", parts)
	}

	// Restart: fresh spool sweeps the debris and starts over at shard 0.
	sp2 := NewSpool(dir, "beacon", false, 2)
	for i := 0; i < 2; i++ {
		if err := writeJSON(sp2, faultRec{N: 100 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp2.Close(); err != nil {
		t.Fatal(err)
	}
	var got []int
	if _, err := DecodeSpool(dir, "beacon", false, func(r faultRec) error {
		got = append(got, r.N)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 100 || got[1] != 101 {
		t.Fatalf("post-recovery spool records = %v", got)
	}
}

// A failed fsync during seal must fail the seal (the shard is not published
// with potentially non-durable bytes).
func TestSpoolSealSyncErrorFailsSeal(t *testing.T) {
	dir := t.TempDir()
	inj := &faultline.StepInjector{
		N: 1, D: faultline.Decision{Err: faultline.ErrInjected},
		Filter: func(op faultline.Op) bool { return op.Kind == "sync" },
	}
	ffs := faultline.NewFaultFS(faultline.OS(), inj, dir, nil)
	sp := NewSpool(dir, "beacon", false, 1)
	sp.SetFS(ffs)

	err := writeJSON(sp, faultRec{N: 1}) // maxPerFile=1 seals immediately
	if !errors.Is(err, faultline.ErrInjected) {
		t.Fatalf("seal with failing fsync: err = %v, want ErrInjected", err)
	}
	files, _ := SpoolFiles(dir, "beacon")
	if len(files) != 0 {
		t.Fatalf("failed seal still published shards: %v", files)
	}
}

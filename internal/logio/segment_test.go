package logio

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeShard(t *testing.T, name string, content []byte) (string, int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, int64(len(content))
}

// TestReadSegmentCutsAtLines: plain segments end on a line boundary at
// most max bytes in, except for one line longer than max, and the tail of
// the shard comes back whole.
func TestReadSegmentCutsAtLines(t *testing.T) {
	path, size := writeShard(t, "beacon-0000.jsonl", []byte("aaaa\nbb\ncccccccccc\ndd"))
	var got []string
	for off := int64(0); off < size; {
		seg, text, err := ReadSegment(path, off, size, 8)
		if err != nil || !bytes.Equal(text, seg) {
			t.Fatalf("segment %q, text %q, err %v", seg, text, err)
		}
		got = append(got, string(seg))
		off += int64(len(seg))
	}
	want := []string{"aaaa\nbb\n", "cccccccccc\n", "dd"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("segments %q, want %q", got, want)
	}
}

// TestReadSegmentGzipWhole: a gzip shard is read whole, only from offset
// 0, only when it inflates completely, and only when it fits in
// MaxSegmentBytes.
func TestReadSegmentGzipWhole(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte("one\ntwo\n"))
	zw.Close()
	path, size := writeShard(t, "beacon-0000.jsonl.gz", gz.Bytes())
	seg, text, err := ReadSegment(path, 0, size, 4)
	if err != nil || !bytes.Equal(seg, gz.Bytes()) || string(text) != "one\ntwo\n" {
		t.Fatalf("whole gzip read: %d bytes, text %q, err %v", len(seg), text, err)
	}
	if _, _, err := ReadSegment(path, 1, size, 4); err == nil {
		t.Fatal("gzip read from a mid-stream offset succeeded")
	}
	cut, cutSize := writeShard(t, "beacon-0001.jsonl.gz", gz.Bytes()[:gz.Len()-3])
	if _, _, err := ReadSegment(cut, 0, cutSize, 4); err == nil {
		t.Fatal("truncated gzip shard read without error")
	}
	// Gzip shards cannot be cut, so one over the cap is an error before
	// any read (the file is sparse).
	big, _ := writeShard(t, "beacon-0002.jsonl.gz", nil)
	if err := os.Truncate(big, MaxSegmentBytes+1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSegment(big, 0, MaxSegmentBytes+1, 4); err == nil || !strings.Contains(err.Error(), "segment cap") {
		t.Fatalf("gzip shard over the cap: err %v, want the segment cap named", err)
	}
}

// TestReadSegmentNeverOverCap: a line that does not fit in MaxSegmentBytes
// is a *LongLineError naming the shard and the offset, and giving where
// the line ends, not a segment over the cap that a receiver can only
// refuse.
func TestReadSegmentNeverOverCap(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a >17MB shard")
	}
	line := strings.Repeat("a", MaxSegmentBytes+100)
	path, size := writeShard(t, "beacon-0007.jsonl", []byte("ok\n"+line+"\nok\n"))
	seg, _, err := ReadSegment(path, 3, size, 1<<20)
	if err == nil {
		t.Fatalf("read a %d-byte segment, over the %d cap", len(seg), MaxSegmentBytes)
	}
	if msg := err.Error(); !strings.Contains(msg, "beacon-0007.jsonl") || !strings.Contains(msg, "offset 3") {
		t.Fatalf("error %q does not name the shard and the offset", msg)
	}
	var long *LongLineError
	if !errors.As(err, &long) || long.End != 3+int64(len(line))+1 {
		t.Fatalf("error %#v, want a *LongLineError ending at %d", err, 3+len(line)+1)
	}
	if seg, _, err := ReadSegment(path, long.End, size, 1<<20); err != nil || string(seg) != "ok\n" {
		t.Fatalf("segment after the long line: %q, err %v", seg, err)
	}
}

// TestEachGzipChunk: a gzip shard comes out in line-aligned chunks that
// add up to its text, a corrupt one hands out nothing, and a line over
// MaxLineBytes arrives cut but still over the cap.
func TestEachGzipChunk(t *testing.T) {
	gzipped := func(text string) []byte {
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write([]byte(text))
		zw.Close()
		return gz.Bytes()
	}
	text := "aaaa\nbb\ncccccccccc\ndd"
	path, _ := writeShard(t, "beacon-0000.jsonl.gz", gzipped(text))
	var chunks []string
	if err := EachGzipChunk(path, 6, func(b []byte) { chunks = append(chunks, string(b)) }); err != nil {
		t.Fatal(err)
	}
	if want := []string{"aaaa\nbb\n", "cccccccccc\n", "dd"}; strings.Join(chunks, "|") != strings.Join(want, "|") {
		t.Fatalf("chunks %q, want %q", chunks, want)
	}

	gz := gzipped(text)
	cut, _ := writeShard(t, "beacon-0001.jsonl.gz", gz[:len(gz)-3])
	called := false
	if err := EachGzipChunk(cut, 6, func([]byte) { called = true }); err == nil || called {
		t.Fatalf("truncated shard: err %v, fn called %v; want an error and no call", err, called)
	}

	if testing.Short() {
		return
	}
	long := "ok\n" + strings.Repeat("a", 2*MaxLineBytes) + "\nok\n"
	path, _ = writeShard(t, "beacon-0002.jsonl.gz", gzipped(long))
	var lines [][]byte
	if err := EachGzipChunk(path, 1<<20, func(b []byte) { lines = append(lines, bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))...) }); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 || string(lines[0]) != "ok" || string(lines[2]) != "ok" ||
		len(lines[1]) <= MaxLineBytes || len(lines[1]) > MaxLineBytes+(64<<10) {
		t.Fatalf("%d lines, long one %d bytes; want ok, a line cut just over %d, ok", len(lines), len(lines[1]), MaxLineBytes)
	}
}

// TestGzipSpoolSealsBySize: a gzip spool with no record-count rotation
// still seals each shard by compressed size, so every shard stays under
// the segment cap and ReadSegment (the shipper's reader) takes it whole.
func TestGzipSpoolSealsBySize(t *testing.T) {
	type padded struct {
		ID  int    `json:"id"`
		Pad string `json:"pad"`
	}
	dir := t.TempDir()
	sp := NewSpool(dir, "beacon", true, 0)
	rng := rand.New(rand.NewPCG(1, 2))
	raw := make([]byte, 48<<10)
	n := 0
	for {
		files, err := SpoolFiles(dir, "beacon")
		if err != nil {
			t.Fatal(err)
		}
		if len(files) >= 2 { // two shards sealed by size alone
			break
		}
		if n*len(raw) > 4*gzipShardBytes {
			t.Fatalf("%d records (%d MiB raw) written without sealing two shards", n, n*len(raw)>>20)
		}
		for i := range raw {
			raw[i] = byte(rng.Uint32())
		}
		if err := writeJSON(sp, padded{ID: n, Pad: base64.StdEncoding.EncodeToString(raw)}); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := SpoolFiles(dir, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, path := range files {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > MaxSegmentBytes {
			t.Errorf("%s: %d bytes, over the %d segment cap", filepath.Base(path), fi.Size(), MaxSegmentBytes)
		}
		_, text, err := ReadSegment(path, 0, fi.Size(), SegmentBytes)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		records += bytes.Count(text, []byte("\n"))
	}
	if records != n {
		t.Fatalf("read %d records across %d shards, wrote %d", records, len(files), n)
	}
}

package logio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

type rec struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
}

// writeJSON spools v as one pre-encoded JSON line.
func writeJSON(sp *Spool, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return sp.WriteLine(line)
}

// TestWriteLineFramesLikeWrite: a pre-encoded line is framed exactly as
// Write frames the value it encodes, and counts as one record.
func TestWriteLineFramesLikeWrite(t *testing.T) {
	var viaWrite, viaLine bytes.Buffer
	w, l := NewWriter(&viaWrite), NewWriter(&viaLine)
	for i := 0; i < 3; i++ {
		v := rec{ID: i, Name: "<a&b>"}
		line, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(v); err != nil {
			t.Fatal(err)
		}
		if err := l.WriteLine(line); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	l.Flush()
	if l.Count() != 3 || !bytes.Equal(viaLine.Bytes(), viaWrite.Bytes()) {
		t.Fatalf("WriteLine: count %d, bytes %q; Write: %q", l.Count(), viaLine.Bytes(), viaWrite.Bytes())
	}
}

func TestWriterAndDecode(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 5; i++ {
		if err := w.Write(rec{ID: i, Name: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 5 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []rec
	st, err := Decode(&buf, false, func(r rec) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 5 || st.Bad != 0 {
		t.Errorf("stats = %+v", st)
	}
	if got[3].ID != 3 {
		t.Errorf("records = %v", got)
	}
}

func TestDecodeStrictFailsOnGarbage(t *testing.T) {
	in := strings.NewReader(`{"id":1}` + "\n" + `{garbage` + "\n" + `{"id":2}` + "\n")
	_, err := Decode(in, false, func(rec) error { return nil })
	if err == nil {
		t.Fatal("strict decode accepted garbage")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error does not name the line: %v", err)
	}
}

func TestDecodeLenientSkipsGarbage(t *testing.T) {
	in := strings.NewReader(`{"id":1}` + "\n" + `{trunc` + "\n\n" + `not json at all` + "\n" + `{"id":2}` + "\n")
	n := 0
	st, err := Decode(in, true, func(rec) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 || st.Bad != 2 || n != 2 {
		t.Errorf("stats = %+v, n = %d", st, n)
	}
}

func TestDecodeCallbackErrorStops(t *testing.T) {
	in := strings.NewReader(`{"id":1}` + "\n" + `{"id":2}` + "\n")
	sentinel := errors.New("stop")
	calls := 0
	_, err := Decode(in, false, func(rec) error { calls++; return sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Errorf("callback ran %d times after error", calls)
	}
}

func TestFileWriterPlainAndGzip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"plain.jsonl", "zipped.jsonl.gz"} {
		path := filepath.Join(dir, "sub", name)
		fw, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := fw.Write(rec{ID: i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		sum := 0
		st, err := DecodeFile(path, false, func(r rec) error { sum += r.ID; return nil })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Records != 100 || sum != 4950 {
			t.Errorf("%s: records=%d sum=%d", name, st.Records, sum)
		}
	}
	// Gzip actually compresses: the file must not contain raw JSON.
	raw, err := os.ReadFile(filepath.Join(dir, "sub", "zipped.jsonl.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"id"`)) {
		t.Error("gzip file contains plaintext JSON")
	}
}

func TestDecodeFileMissing(t *testing.T) {
	if _, err := DecodeFile[rec]("/nonexistent/nope.jsonl", false, func(rec) error { return nil }); err == nil {
		t.Error("missing file accepted")
	}
}

func TestDecodeFileBadGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.jsonl.gz")
	if err := os.WriteFile(path, []byte("this is not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFile[rec](path, true, func(rec) error { return nil }); err == nil {
		t.Error("bad gzip accepted")
	}
}

func TestSpoolSharding(t *testing.T) {
	dir := t.TempDir()
	sp := NewSpool(dir, "beacon", false, 40)
	for i := 0; i < 100; i++ {
		if err := writeJSON(sp, rec{ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if sp.Count() != 100 {
		t.Errorf("Count = %d", sp.Count())
	}
	files, err := SpoolFiles(dir, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 { // 40 + 40 + 20
		t.Fatalf("shards = %v", files)
	}
	var ids []int
	st, err := DecodeSpool(dir, "beacon", false, func(r rec) error { ids = append(ids, r.ID); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 100 {
		t.Errorf("decoded %d records", st.Records)
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("shard order broken at %d: got %d", i, id)
		}
	}
}

func TestSpoolGzipAndEmptyClose(t *testing.T) {
	dir := t.TempDir()
	sp := NewSpool(dir, "d", true, 0)
	if err := sp.Close(); err != nil { // close with nothing written
		t.Fatal(err)
	}
	sp = NewSpool(dir, "d", true, 0)
	for i := 0; i < 10; i++ {
		if err := writeJSON(sp, rec{ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := SpoolFiles(dir, "d")
	if len(files) != 1 || !strings.HasSuffix(files[0], ".jsonl.gz") {
		t.Fatalf("files = %v", files)
	}
	n := 0
	if _, err := DecodeSpool(dir, "d", false, func(rec) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("decoded %d", n)
	}
}

func TestSpoolFilesIgnoresForeign(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"beacon-0000.jsonl", "other-0000.jsonl", "beacon-readme.txt", "beacon-0001.jsonl"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "beacon-9999.jsonl"), 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := SpoolFiles(dir, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("files = %v", files)
	}
}

// TestSpoolFilesTwoSpoolsOneDir pins the exact shard pattern: a spool
// prefix must not pick up shards of a longer-prefixed spool sharing the
// directory, nor half-written .tmp leftovers or non-numeric shard names.
func TestSpoolFilesTwoSpoolsOneDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		"rum-0000.jsonl",
		"rum-0001.jsonl.gz",
		"rum-10000.jsonl", // shard counter past four digits still belongs
		"rum-extra-0000.jsonl",
		"rum-extra-0001.jsonl.gz",
		"rum-0002.jsonl.tmp",
		"rum-0003.jsonl.gz.tmp",
		"rum-abc.jsonl",
		"rum-00.jsonl",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files, err := SpoolFiles(dir, "rum")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(dir, "rum-0000.jsonl"),
		filepath.Join(dir, "rum-0001.jsonl.gz"),
		filepath.Join(dir, "rum-10000.jsonl"),
	}
	if !slices.Equal(files, want) {
		t.Fatalf("files = %v, want %v", files, want)
	}
	extra, err := SpoolFiles(dir, "rum-extra")
	if err != nil {
		t.Fatal(err)
	}
	if len(extra) != 2 {
		t.Fatalf("rum-extra files = %v", extra)
	}
}

// TestSpoolSealsAtomically: a crash mid-write (spool abandoned without
// Close) must leave no sealed-but-short shard — only a .part file that no
// spool reader picks up. This is the contract the live tailer and the
// federation shipper rely on: a sealed shard name implies a complete shard.
func TestSpoolSealsAtomically(t *testing.T) {
	dir := t.TempDir()
	sp := NewSpool(dir, "beacon", false, 100)
	for i := 0; i < 60; i++ { // under maxPerFile: shard 0 never rotates
		if err := writeJSON(sp, rec{ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close. The 60 records live only in beacon-0000.jsonl.part.
	files, err := SpoolFiles(dir, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("mid-write crash left sealed shards: %v", files)
	}
	if _, err := os.Stat(filepath.Join(dir, "beacon-0000.jsonl"+PartSuffix)); err != nil {
		t.Fatalf("active .part file missing: %v", err)
	}

	// A restarted writer sweeps the debris and the spool stays consistent:
	// every sealed shard is complete, no .part survives a clean Close.
	sp2 := NewSpool(dir, "beacon", false, 100)
	for i := 0; i < 150; i++ {
		if err := writeJSON(sp2, rec{ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp2.Close(); err != nil {
		t.Fatal(err)
	}
	files, err = SpoolFiles(dir, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 { // 100 + 50
		t.Fatalf("sealed shards = %v, want 2", files)
	}
	n := 0
	if _, err := DecodeSpool(dir, "beacon", false, func(rec) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 150 {
		t.Fatalf("decoded %d records, want 150 (short shard sealed?)", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), PartSuffix) {
			t.Fatalf(".part survived a clean Close: %s", e.Name())
		}
	}
}

// TestSpoolResumesNumbering: a restarted collector must append new shards
// after the existing ones, never truncate a sealed shard in place — sealed
// bytes may already be consumed by a tailer checkpoint or shipped by a
// federation shipper.
func TestSpoolResumesNumbering(t *testing.T) {
	dir := t.TempDir()
	sp := NewSpool(dir, "beacon", false, 10)
	for i := 0; i < 25; i++ {
		if err := writeJSON(sp, rec{ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Close(); err != nil { // seals beacon-0000..0002
		t.Fatal(err)
	}
	sp2 := NewSpool(dir, "beacon", false, 10)
	if err := writeJSON(sp2, rec{ID: 100}); err != nil {
		t.Fatal(err)
	}
	if err := sp2.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := SpoolFiles(dir, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 || !strings.HasSuffix(files[3], "beacon-0003.jsonl") {
		t.Fatalf("files = %v, want resume at beacon-0003", files)
	}
	var ids []int
	if _, err := DecodeSpool(dir, "beacon", false, func(r rec) error { ids = append(ids, r.ID); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 26 || ids[25] != 100 {
		t.Fatalf("replay = %d records, last %d", len(ids), ids[len(ids)-1])
	}
}

func TestSpoolFilesMissingDir(t *testing.T) {
	if _, err := SpoolFiles("/nonexistent/spool", "x"); err == nil {
		t.Error("missing dir accepted")
	}
}

// TestDecodeOversizeLine drives the scanner's buffer limit: a line beyond
// the 16 MiB cap must surface bufio.ErrTooLong in BOTH modes — lenient
// mode may skip malformed lines, but a line the scanner cannot even
// tokenize is not skippable, exactly like gzip-layer corruption.
func TestDecodeOversizeLine(t *testing.T) {
	oversize := `{"name":"` + strings.Repeat("a", MaxLineBytes) + `"}`
	for _, lenient := range []bool{false, true} {
		in := strings.NewReader(`{"id":1}` + "\n" + oversize + "\n" + `{"id":2}` + "\n")
		st, err := Decode(in, lenient, func(rec) error { return nil })
		if err == nil {
			t.Fatalf("lenient=%v: oversize line decoded without error", lenient)
		}
		if !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("lenient=%v: err = %v, want bufio.ErrTooLong", lenient, err)
		}
		if !strings.Contains(err.Error(), "scan") {
			t.Errorf("lenient=%v: error does not name the scan layer: %v", lenient, err)
		}
		// Records before the oversize line were already delivered.
		if st.Records != 1 || st.Bad != 0 {
			t.Errorf("lenient=%v: stats = %+v, want 1 record, 0 bad", lenient, st)
		}
	}
}

func TestDecodeTruncatedGzipLenient(t *testing.T) {
	// A gzip stream cut mid-file: lenient decoding should surface the error
	// (corruption at the compression layer is not a skippable line).
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl.gz")
	fw, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		fw.Write(rec{ID: i, Name: strings.Repeat("x", 50)})
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFile[rec](path, true, func(rec) error { return nil }); err == nil {
		t.Error("truncated gzip stream decoded without error")
	}
}

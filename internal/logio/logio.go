// Package logio implements the log plumbing shared by the BEACON and DEMAND
// datasets: streaming JSONL readers and writers with transparent gzip (by
// file suffix), and directory spools that shard long streams across files
// the way a CDN log pipeline rotates collection output.
//
// Readers offer a strict mode (first malformed line aborts) and a lenient
// mode that skips malformed or truncated lines while counting them — real
// log pipelines must survive partial flushes, and the failure-injection
// tests exercise exactly that.
package logio

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cellspot/internal/faultline"
)

// Writer encodes one JSON record per line onto an io.Writer.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
	n   int
}

// NewWriter wraps w in a buffered JSONL writer.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriterSize(w, 64<<10)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record as a JSON line.
func (w *Writer) Write(v any) error {
	if err := w.enc.Encode(v); err != nil {
		return fmt.Errorf("logio: encode record %d: %w", w.n, err)
	}
	w.n++
	return nil
}

// WriteLine appends one record already encoded as JSON: line, which must
// hold one JSON value and no newline, then a newline, as Write would
// frame it.
func (w *Writer) WriteLine(line []byte) error {
	_, err := w.bw.Write(line)
	if err == nil {
		err = w.bw.WriteByte('\n')
	}
	if err != nil {
		return fmt.Errorf("logio: write record %d: %w", w.n, err)
	}
	w.n++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int { return w.n }

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// FileWriter is a Writer bound to a file, gzip-compressed when the path
// ends in ".gz".
type FileWriter struct {
	*Writer
	f  faultline.File
	gz *gzip.Writer
	zn *countWriter // gzip output as it reaches f; nil for a plain file
}

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Create opens path for writing (truncating), creating parent directories.
func Create(path string) (*FileWriter, error) {
	return CreateFS(path, faultline.OS())
}

// CreateFS is Create with filesystem operations routed through fs — the
// fault-injection hook the spool crash tests use.
func CreateFS(path string, fs faultline.FS) (*FileWriter, error) {
	if err := fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("logio: create dir for %s: %w", path, err)
	}
	f, err := fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("logio: create %s: %w", path, err)
	}
	fw := &FileWriter{f: f}
	// An active spool shard carries a .part suffix; compression is decided
	// by the name it will seal to.
	if strings.HasSuffix(strings.TrimSuffix(path, PartSuffix), ".gz") {
		fw.zn = &countWriter{w: f}
		fw.gz = gzip.NewWriter(fw.zn)
		fw.Writer = NewWriter(fw.gz)
	} else {
		fw.Writer = NewWriter(f)
	}
	return fw, nil
}

// Close flushes and closes the file.
func (w *FileWriter) Close() error {
	var errs []error
	if err := w.Flush(); err != nil {
		errs = append(errs, err)
	}
	if w.gz != nil {
		if err := w.gz.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := w.f.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// closeSync is Close plus an fsync before the file descriptor goes away, so
// a rename that follows publishes only durable bytes.
func (w *FileWriter) closeSync() error {
	var errs []error
	if err := w.Flush(); err != nil {
		errs = append(errs, err)
	}
	if w.gz != nil {
		if err := w.gz.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := w.f.Sync(); err != nil {
		errs = append(errs, err)
	}
	if err := w.f.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// MaxLineBytes bounds one JSONL line. A longer line aborts the scan with
// bufio.ErrTooLong in strict AND lenient modes: the scanner cannot
// re-synchronize past a token it cannot buffer, so the failure is not a
// skippable line. The live spool reader and the federation receiver skip
// and count longer lines instead (their segments are bounded in memory by
// MaxSegmentBytes), and the ingest importer enforces the same cap, so no
// reader of spooled or foreign logs buffers an unbounded line.
const MaxLineBytes = 16 << 20

// ReadStats reports what a lenient read encountered.
type ReadStats struct {
	Records int // successfully decoded records
	Bad     int // malformed lines skipped (lenient mode only)
}

// Decode streams records of type T from r, invoking fn per record. In
// strict mode the first malformed line aborts with an error; in lenient
// mode malformed lines are counted and skipped. fn returning an error stops
// the stream and propagates the error.
func Decode[T any](r io.Reader, lenient bool, fn func(T) error) (ReadStats, error) {
	var st ReadStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), MaxLineBytes)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(raw, &v); err != nil {
			if lenient {
				st.Bad++
				continue
			}
			return st, fmt.Errorf("logio: line %d: %w", line, err)
		}
		if err := fn(v); err != nil {
			return st, err
		}
		st.Records++
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("logio: scan: %w", err)
	}
	return st, nil
}

// DecodeFile streams records from a file, transparently gunzipping ".gz".
func DecodeFile[T any](path string, lenient bool, fn func(T) error) (ReadStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return ReadStats{}, fmt.Errorf("logio: open %s: %w", path, err)
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return ReadStats{}, fmt.Errorf("logio: gunzip %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	return Decode(r, lenient, fn)
}

// SpoolPrefix is the shard prefix of the beacon-record spool. beacond,
// cellspot and ingest write it; the federation shipper and the live
// spool input read it.
const SpoolPrefix = "beacon"

// PartSuffix marks an actively written, not yet sealed shard file. Part
// files never match IsShardName, so spool readers (the live aggregator's
// local input, the federation shipper) only ever observe complete, sealed
// shards.
const PartSuffix = ".part"

// Spool writes a long record stream sharded across numbered files in a
// directory, rotating after maxPerFile records. A gzip spool also rotates
// once gzipShardBytes of compressed output have reached the active shard.
//
// Shards are sealed atomically: the active shard is written as
// <name>.jsonl[.gz].part and renamed to its final name — after an fsync —
// only when it is complete (rotation or Close). A reader that sees a shard
// name therefore sees all of its bytes; a crash mid-write leaves only a
// .part file behind, never a sealed-but-short shard. The price is that
// records in the active shard are invisible until it seals.
//
// A spool pointed at a directory that already holds sealed shards resumes
// numbering after the highest existing shard instead of truncating it —
// a restarted collector must never rewrite bytes a reader (or a shipper's
// checkpoint) has already consumed. Orphaned .part files from a crashed
// writer are swept at first write: their records were never visible, so
// removing them keeps the "sealed means durable and immutable" contract.
type Spool struct {
	dir        string
	prefix     string
	gzip       bool
	maxPerFile int
	fs         faultline.FS
	cur        *FileWriter
	shard      int
	total      int
	inited     bool
}

// NewSpool creates a spool writing files named <prefix>-NNNN.jsonl[.gz]
// under dir. maxPerFile <= 0 means no rotation by record count: a plain
// spool then writes a single shard, a gzip one rotates by size alone.
func NewSpool(dir, prefix string, gzipped bool, maxPerFile int) *Spool {
	return &Spool{dir: dir, prefix: prefix, gzip: gzipped, maxPerFile: maxPerFile, fs: faultline.OS()}
}

// SetFS routes the spool's filesystem operations through fs. It must be
// called before the first Write.
func (s *Spool) SetFS(fs faultline.FS) {
	if fs != nil {
		s.fs = fs
	}
}

// gzipShardBytes seals a gzip shard once this many compressed bytes have
// reached its file, whatever its record count. Gzip shards ship and are
// read whole, and a reader refuses one over MaxSegmentBytes, so a shard
// must seal well under that cap: the margin covers what the write buffer
// and the deflater still hold when the bound is passed, plus the last
// record, for records far smaller than the margin.
const gzipShardBytes = 8 << 20

func (s *Spool) shardPath(i int) string {
	ext := ".jsonl"
	if s.gzip {
		ext += ".gz"
	}
	return filepath.Join(s.dir, fmt.Sprintf("%s-%04d%s", s.prefix, i, ext))
}

// init scans the spool directory once: resume numbering after existing
// sealed shards and sweep .part debris from a crashed writer.
func (s *Spool) init() error {
	s.inited = true
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil // fresh directory; Create will make it
		}
		return fmt.Errorf("logio: scan spool dir %s: %w", s.dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if IsShardName(name, s.prefix) {
			var idx int
			if _, err := fmt.Sscanf(strings.TrimPrefix(name, s.prefix+"-"), "%d", &idx); err == nil && idx >= s.shard {
				s.shard = idx + 1
			}
			continue
		}
		if strings.HasPrefix(name, s.prefix+"-") && strings.HasSuffix(name, PartSuffix) &&
			IsShardName(strings.TrimSuffix(name, PartSuffix), s.prefix) {
			if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
				return fmt.Errorf("logio: sweep %s: %w", name, err)
			}
		}
	}
	return nil
}

// WriteLine appends one record already encoded as JSON (see
// Writer.WriteLine), rotating shards as needed.
func (s *Spool) WriteLine(line []byte) error {
	if !s.inited {
		if err := s.init(); err != nil {
			return err
		}
	}
	if s.cur == nil {
		fw, err := CreateFS(s.shardPath(s.shard)+PartSuffix, s.fs)
		if err != nil {
			return err
		}
		s.cur = fw
	}
	if err := s.cur.WriteLine(line); err != nil {
		return err
	}
	s.total++
	if s.maxPerFile > 0 && s.cur.Count() >= s.maxPerFile ||
		s.cur.zn != nil && s.cur.zn.n >= gzipShardBytes {
		return s.seal()
	}
	return nil
}

// seal finishes the active shard: flush, fsync, close, and rename the
// .part file to its sealed name in one atomic step.
func (s *Spool) seal() error {
	final := s.shardPath(s.shard)
	if err := s.cur.closeSync(); err != nil {
		s.cur = nil
		return err
	}
	s.cur = nil
	if err := s.fs.Rename(final+PartSuffix, final); err != nil {
		return fmt.Errorf("logio: seal %s: %w", filepath.Base(final), err)
	}
	s.shard++
	return nil
}

// Count returns the total number of records written across shards.
func (s *Spool) Count() int { return s.total }

// Close seals the current shard.
func (s *Spool) Close() error {
	if s.cur == nil {
		return nil
	}
	return s.seal()
}

// IsShardName reports whether name is a shard of the named spool: exactly
// <prefix>-NNNN.jsonl[.gz] with four or more digits. The exact match keeps
// spools with a common prefix apart ("rum" must not tail "rum-extra"'s
// shards) and excludes leftovers like half-written ".jsonl.tmp" files.
func IsShardName(name, prefix string) bool {
	rest, ok := strings.CutPrefix(name, prefix+"-")
	if !ok {
		return false
	}
	digits := 0
	for digits < len(rest) && rest[digits] >= '0' && rest[digits] <= '9' {
		digits++
	}
	if digits < 4 {
		return false
	}
	ext := rest[digits:]
	return ext == ".jsonl" || ext == ".jsonl.gz"
}

// SpoolFiles lists a spool's shard files in order. Only exact shard names
// (see IsShardName) are included.
func SpoolFiles(dir, prefix string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("logio: read spool dir %s: %w", dir, err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !IsShardName(e.Name(), prefix) {
			continue
		}
		out = append(out, filepath.Join(dir, e.Name()))
	}
	sort.Strings(out)
	return out, nil
}

// DecodeSpool streams every record of a spool in shard order.
func DecodeSpool[T any](dir, prefix string, lenient bool, fn func(T) error) (ReadStats, error) {
	files, err := SpoolFiles(dir, prefix)
	if err != nil {
		return ReadStats{}, err
	}
	var total ReadStats
	for _, f := range files {
		st, err := DecodeFile(f, lenient, fn)
		total.Records += st.Records
		total.Bad += st.Bad
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

package logio

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// SegmentBytes is the default target size of one plain segment: what the
// federation shipper posts at a time and what the live aggregator's local
// input folds at a time.
const SegmentBytes = 1 << 20

// MaxSegmentBytes bounds one segment of a sealed shard: room for one line
// at the MaxLineBytes cap plus slack. ReadSegment never returns more, so
// a federation receiver can treat any bigger payload as hostile or
// corrupt.
const MaxSegmentBytes = MaxLineBytes + (1 << 20)

// maxGunzipBytes bounds what Gunzip inflates one payload to (gzip on JSONL
// rarely exceeds ~20x).
const maxGunzipBytes = MaxSegmentBytes * 64

// A LongLineError reports a line of a plain shard that no segment can
// hold. End is the offset just past the line, where reading can resume.
type LongLineError struct {
	Shard       string
	Offset, End int64
}

func (e *LongLineError) Error() string {
	return fmt.Sprintf("logio: %s: line at offset %d runs %d bytes, over the %d segment cap",
		e.Shard, e.Offset, e.End-e.Offset, MaxSegmentBytes)
}

// ReadSegment reads the next segment of a sealed shard of size bytes,
// starting at offset, and returns it as stored and as JSONL text: the same
// bytes for a plain shard, inflated by Gunzip for a gzip one. A plain
// segment is at most max bytes ending on a line boundary, or the one line
// starting there when it is longer than max; a line that does not fit in
// MaxSegmentBytes is a *LongLineError. Gzip shards are read whole, and
// only from offset 0, since a gzip stream cannot be entered mid-way; one
// over MaxSegmentBytes is an error. No segment exceeds MaxSegmentBytes,
// so none is one a federation receiver must refuse.
func ReadSegment(path string, offset, size int64, max int) (seg, text []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	shard := filepath.Base(path)
	if !strings.HasSuffix(shard, ".gz") {
		seg, err = readLines(f, shard, offset, size, max)
		return seg, seg, err
	}
	if offset != 0 {
		return nil, nil, fmt.Errorf("logio: %s: gzip shard acked mid-file at %d; cannot resume inside a gzip stream", shard, offset)
	}
	if size > MaxSegmentBytes {
		return nil, nil, fmt.Errorf("logio: %s: gzip shard of %d bytes over the %d segment cap", shard, size, MaxSegmentBytes)
	}
	if seg, err = readAt(f, 0, size); err != nil {
		return nil, nil, err
	}
	if text, err = Gunzip(seg); err != nil {
		return nil, nil, fmt.Errorf("logio: %s: gzip shard unreadable: %w", shard, err)
	}
	return seg, text, nil
}

// EachGzipChunk reads a whole gzip shard and hands its inflated text to fn
// in chunks of about max bytes that end on line boundaries, so a reader
// folding the shard holds one chunk rather than all of it. The shard is
// inflated once to check it before fn is first called: a truncated or
// corrupt shard is an error with nothing handed out. A line longer than
// MaxLineBytes reaches fn cut to MaxLineBytes and a little more, still
// over the cap, so its body is never held whole.
func EachGzipChunk(path string, max int, fn func(text []byte)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err == nil {
		_, err = io.Copy(io.Discard, zr)
	}
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err == nil {
		err = zr.Reset(f)
	}
	if err != nil {
		return fmt.Errorf("logio: %s: gzip shard unreadable: %w", filepath.Base(path), err)
	}
	br := bufio.NewReader(zr)
	var chunk []byte
	line := 0 // where the current line starts in chunk
	for {
		part, err := br.ReadSlice('\n')
		if len(chunk)-line <= MaxLineBytes {
			chunk = append(chunk, part...)
		} else if err == nil {
			chunk = append(chunk, '\n')
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil && err != io.EOF {
			return err
		}
		if line = len(chunk); line > 0 && (line >= max || err == io.EOF) {
			fn(chunk)
			chunk, line = chunk[:0], 0
		}
		if err == io.EOF {
			return nil
		}
	}
}

// readLines cuts a plain segment for ReadSegment.
func readLines(f *os.File, shard string, offset, size int64, max int) ([]byte, error) {
	buf, err := readAt(f, offset, min(int64(min(max, MaxSegmentBytes)), size-offset))
	if err != nil || offset+int64(len(buf)) == size {
		return buf, err
	}
	if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
		return buf[:i+1], nil
	}
	// One line longer than max: look for its end within the cap.
	buf, err = readAt(f, offset, min(MaxSegmentBytes, size-offset))
	if err != nil {
		return nil, err
	}
	if i := bytes.IndexByte(buf, '\n'); i >= 0 {
		return buf[:i+1], nil
	}
	if offset+int64(len(buf)) == size {
		return buf, nil
	}
	// No segment can hold the line; find where it ends.
	end := offset + int64(len(buf))
	r := bufio.NewReader(io.NewSectionReader(f, end, size-end))
	for {
		chunk, err := r.ReadSlice('\n')
		end += int64(len(chunk))
		if err == nil || err == io.EOF {
			return nil, &LongLineError{Shard: shard, Offset: offset, End: end}
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
}

func readAt(f *os.File, offset, n int64) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, offset); err != nil {
		return nil, err
	}
	return buf, nil
}

// Gunzip inflates one whole gzip payload, refusing to grow past a fixed
// multiple of MaxSegmentBytes so a small hostile payload cannot balloon
// memory. A truncated stream is an error.
func Gunzip(payload []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	text, err := io.ReadAll(io.LimitReader(zr, maxGunzipBytes+1))
	if err != nil {
		return nil, err
	}
	if len(text) > maxGunzipBytes {
		return nil, fmt.Errorf("decompressed payload over %d bytes", maxGunzipBytes)
	}
	return text, nil
}

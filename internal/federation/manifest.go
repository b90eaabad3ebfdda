// Package federation turns N independent beacond collectors into one
// aggregation plane: the paper's detection substrate is a planet-wide RUM
// collector fleet, not a single process, and cellular-usage conclusions
// only hold when observations from many vantage points merge into one
// sliding window.
//
// The plane has two halves. A Shipper runs next to each collector's spool:
// it watches for sealed shards (logio's atomic .part → rename sealing
// guarantees it never sees a torn shard), slices them into
// content-addressed segments under a signed-length manifest, and ships
// them over HTTP with offset checkpoints and bounded retry — resuming
// after a crash without re-shipping checkpointed bytes. A Receiver is the
// aggregator's HTTP input adapter: it verifies digests, deduplicates by
// (collector, shard, offset), folds records exactly once into the
// live.Aggregator's collector-keyed window, which publishes map generations
// whose checkpoint captures both the window state and every source's
// acked offset atomically — the PR 3 invariant "CURRENT's checkpoint
// describes exactly the records baked into CURRENT's map", extended
// across a fleet.
//
// Exactly-once argument, in one paragraph: a collector's sealed spool is
// the durable log; the receiver's acked offset per (collector, shard) is
// advisory until a generation publishes, at which point the checkpointed
// offsets become durable. A segment folds only when it starts exactly at
// the acked offset; replays (offset+length <= acked) are acknowledged
// without folding, gaps and overlaps are rejected with the authoritative
// acked offset so the shipper rewinds to a state both sides agree on. An
// aggregator crash rolls acked back to the last published checkpoint —
// and because the window state in that checkpoint excludes everything
// after it, re-shipped bytes fold exactly once into exactly the right
// window. A shipper crash merely re-offers bytes the receiver already
// acked, which dedup absorbs.
package federation

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"cellspot/internal/logio"
)

const (
	// ManifestFormat versions the segment wire format.
	ManifestFormat = "cellspot-manifest/1"
	// SegmentContentType is the media type of a framed segment POST.
	SegmentContentType = "application/x-cellspot-segment"
	// SegmentsPath is the receiver's segment ingestion route.
	SegmentsPath = "/v1/federation/segments"
	// StatusPath is the receiver's observability route.
	StatusPath = "/v1/federation/status"

	// MaxManifestBytes bounds the manifest line of a framed segment. A
	// segment's payload is bounded by logio.MaxSegmentBytes, which no
	// shipper-cut segment exceeds.
	MaxManifestBytes = 16 << 10

	// maxDayBytes bounds DayMin and DayMax: "-0001-12-31" and
	// "10000-01-01" are the longest days a parsed timestamp formats to.
	maxDayBytes = 11
)

// Manifest describes one content-addressed segment of a sealed spool
// shard: who collected it, which shard, which byte range, what it hashes
// to, and which UTC days it covers. The manifest rides as the first line
// of the framed request body, ahead of the payload it describes.
type Manifest struct {
	Format    string `json:"format"`
	Collector string `json:"collector"`
	Shard     string `json:"shard"`  // shard base name, e.g. beacon-0000.jsonl
	Offset    int64  `json:"offset"` // segment start, bytes into the shard
	Length    int64  `json:"length"` // payload bytes; 0 is a probe (offset ack check)
	SHA256    string `json:"sha256"` // hex digest of the payload ("" on probes)
	Records   int    `json:"records"`
	ShardSize int64  `json:"shard_size"`        // the sealed shard's full size
	DayMin    string `json:"day_min,omitempty"` // oldest UTC day in the segment
	DayMax    string `json:"day_max,omitempty"` // newest UTC day in the segment
}

// validCollectorID reports whether id is usable as a collector identity:
// non-empty, and safe inside checkpoint keys, file names and log lines.
func validCollectorID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// Validate checks structural sanity; it does not verify the digest (the
// receiver does that against the payload it actually read).
func (m Manifest) Validate() error {
	if m.Format != ManifestFormat {
		return fmt.Errorf("federation: manifest format %q, want %q", m.Format, ManifestFormat)
	}
	if !validCollectorID(m.Collector) {
		return fmt.Errorf("federation: invalid collector ID %q", m.Collector)
	}
	// Bounding every free-form string keeps a manifest DecodeSegment
	// accepts within MaxManifestBytes when EncodeSegment re-escapes it.
	if m.Shard == "" || len(m.Shard) > 255 || strings.ContainsAny(m.Shard, "/\\") {
		return fmt.Errorf("federation: invalid shard name %q", m.Shard)
	}
	// Days are bounded by length, not parsed: the shipper formats any
	// timestamp a record carries, and a UTC year of -1 or 10000 (from a
	// zone offset at either end of RFC 3339's range) gives an 11-byte day
	// that time.Parse refuses. Refusing it would stop the shard for good.
	if len(m.DayMin) > maxDayBytes || len(m.DayMax) > maxDayBytes {
		return fmt.Errorf("federation: day %q..%q over %d bytes", m.DayMin, m.DayMax, maxDayBytes)
	}
	if m.Offset < 0 || m.Length < 0 || m.ShardSize < 0 {
		return fmt.Errorf("federation: negative range in manifest (%d+%d of %d)", m.Offset, m.Length, m.ShardSize)
	}
	if m.Length > logio.MaxSegmentBytes {
		return fmt.Errorf("federation: segment length %d over the %d cap", m.Length, logio.MaxSegmentBytes)
	}
	if m.Offset > m.ShardSize-m.Length {
		return fmt.Errorf("federation: segment %d+%d overruns shard size %d", m.Offset, m.Length, m.ShardSize)
	}
	if m.Length > 0 || m.SHA256 != "" {
		if len(m.SHA256) != sha256.Size*2 {
			return fmt.Errorf("federation: sha256 %q is not a %d-hex digest", m.SHA256, sha256.Size*2)
		}
		if _, err := hex.DecodeString(m.SHA256); err != nil {
			return fmt.Errorf("federation: sha256 not hex: %w", err)
		}
	}
	return nil
}

// IsProbe reports whether the manifest carries no payload: a shipper
// asking "how far are you acked, and how much of that is durable?".
func (m Manifest) IsProbe() bool { return m.Length == 0 }

// Gzipped reports whether the shard is a gzip member. Gzip shards cannot
// be decoded from a mid-stream offset, so they ship as one whole-file
// segment; both sides enforce it.
func (m Manifest) Gzipped() bool { return strings.HasSuffix(m.Shard, ".gz") }

// Digest returns the hex SHA-256 of a payload.
func Digest(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// EncodeSegment frames a manifest and its payload for the wire: one JSON
// manifest line, then exactly Length payload bytes.
func EncodeSegment(w io.Writer, m Manifest, payload []byte) error {
	if int64(len(payload)) != m.Length {
		return fmt.Errorf("federation: payload is %d bytes, manifest says %d", len(payload), m.Length)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if len(raw) > MaxManifestBytes {
		return fmt.Errorf("federation: manifest is %d bytes, cap %d", len(raw), MaxManifestBytes)
	}
	if _, err := w.Write(append(raw, '\n')); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// DecodeSegment reads a framed segment: the manifest line, validated, then
// exactly Length payload bytes. It rejects oversized manifests and
// payloads before buffering them, so a hostile body cannot balloon memory.
func DecodeSegment(r io.Reader) (Manifest, []byte, error) {
	br := bufio.NewReaderSize(r, 4<<10)
	line, err := readBoundedLine(br, MaxManifestBytes)
	if err != nil {
		return Manifest{}, nil, fmt.Errorf("federation: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(line, &m); err != nil {
		return Manifest{}, nil, fmt.Errorf("federation: parse manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, nil, err
	}
	payload := make([]byte, m.Length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return Manifest{}, nil, fmt.Errorf("federation: segment payload short of %d bytes: %w", m.Length, err)
	}
	return m, payload, nil
}

// readBoundedLine reads one newline-terminated line of at most max bytes.
func readBoundedLine(br *bufio.Reader, max int) ([]byte, error) {
	var buf []byte
	for {
		chunk, err := br.ReadSlice('\n')
		buf = append(buf, chunk...)
		if len(buf) > max {
			return nil, fmt.Errorf("line over %d bytes", max)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return nil, err
		}
		return buf[:len(buf)-1], nil
	}
}

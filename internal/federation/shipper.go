package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/logio"
	"cellspot/internal/obs"
)

const (
	shipperCheckpointFormat = "cellspot-shipper-checkpoint/1"

	// DefaultSegmentBytes is the target segment size. Segments cut at line
	// boundaries, so real segments run slightly short of this (or longer,
	// up to one full line within logio.MaxSegmentBytes, when a single
	// record overruns it).
	DefaultSegmentBytes = logio.SegmentBytes
	// DefaultShipInterval is the Run polling cadence.
	DefaultShipInterval = 2 * time.Second
	// DefaultMaxAttempts bounds delivery attempts per segment.
	DefaultMaxAttempts = 8
	// DefaultRetryBase is the first retry backoff; it doubles per attempt.
	DefaultRetryBase = 100 * time.Millisecond
	// DefaultShipTimeout is the per-request deadline floor: even a
	// zero-length probe gets this long before the attempt is abandoned.
	DefaultShipTimeout = 30 * time.Second
	// DefaultMinShipRate is the assumed worst-case link rate used to scale
	// the per-request deadline with segment size (bytes per second). A
	// 1 MiB segment over a 128 KiB/s floor adds 8s to the deadline.
	DefaultMinShipRate = 128 << 10
)

// ShipperConfig parameterizes a Shipper.
type ShipperConfig struct {
	// SpoolDir is the collector's spool directory (required).
	SpoolDir string
	// CollectorID identifies this collector in manifests and receiver
	// checkpoints (required; letters, digits, ".", "-", "_").
	CollectorID string
	// Target is the aggregator's base URL, e.g. "http://agg:8791"
	// (required). Segments post to Target+SegmentsPath.
	Target string
	// StateFile holds the shipper's offset checkpoint
	// (SpoolDir/.shipper-<CollectorID>.json when empty). It is written
	// atomically (tmp + rename) after every acknowledged segment, so a
	// restart resumes without re-shipping checkpointed bytes.
	StateFile string
	// SegmentBytes is the target segment size (DefaultSegmentBytes when
	// <= 0).
	SegmentBytes int
	// Interval is the Run polling cadence (DefaultShipInterval when <= 0).
	Interval time.Duration
	// MaxAttempts bounds delivery attempts per segment
	// (DefaultMaxAttempts when <= 0).
	MaxAttempts int
	// RetryBase is the initial backoff, doubling per attempt
	// (DefaultRetryBase when <= 0). 429 responses honor Retry-After
	// instead when present.
	RetryBase time.Duration
	// ShipTimeout is the per-request deadline floor (DefaultShipTimeout
	// when <= 0). Each delivery attempt runs under a context deadline of
	// ShipTimeout plus the time the segment body needs at MinShipRate, so
	// a large segment on a slow link is not killed by a flat timeout while
	// a wedged connection still fails promptly.
	ShipTimeout time.Duration
	// MinShipRate is the slowest link rate the deadline budget assumes, in
	// bytes per second (DefaultMinShipRate when <= 0).
	MinShipRate int
	// HTTPClient defaults to a client with no flat timeout: per-attempt
	// deadlines (see ShipTimeout) govern instead. A caller-supplied client
	// keeps whatever Timeout it carries, which then caps every attempt
	// regardless of segment size.
	HTTPClient *http.Client
	// Metrics, when non-nil, registers the shipper metric families:
	//
	//	federation_shipper_segments_total   segments acknowledged
	//	federation_shipper_bytes_total      payload bytes acknowledged
	//	federation_shipper_records_total    records in acknowledged segments
	//	federation_shipper_probes_total     zero-length durability probes
	//	federation_shipper_retries_total    delivery attempts beyond the first
	//	federation_shipper_rewinds_total    409 rewinds to the receiver's acked offset
	//	federation_shipper_throttled_total  429 backpressure responses honored
	//	federation_shipper_errors_total     segments abandoned after MaxAttempts
	//	federation_shipper_lag_bytes        sealed-but-unacked bytes after the last poll
	//	federation_shipper_ship_seconds     per-segment delivery latency
	Metrics *obs.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// sleep overrides backoff sleeping in tests.
	sleep func(context.Context, time.Duration) error
}

// ShardProgress is the shipper's durable position in one sealed shard.
type ShardProgress struct {
	// Acked is how far the receiver has acknowledged this shard.
	Acked int64 `json:"acked"`
	// Durable is how much of Acked the receiver has folded into a
	// published generation — bytes that survive an aggregator crash. A
	// shard is finished only when Durable reaches Size.
	Durable int64 `json:"durable"`
	// Size is the sealed shard's byte size.
	Size int64 `json:"size"`
}

type shipperState struct {
	Format    string                    `json:"format"`
	Collector string                    `json:"collector"`
	Shards    map[string]*ShardProgress `json:"shards"`
}

// Shipper watches a beacond spool for sealed shards and ships them to a
// federation receiver as content-addressed segments. Safe for concurrent
// use by one shipping goroutine plus any number of Stats readers.
type Shipper struct {
	cfg    ShipperConfig
	client *http.Client

	mu    sync.Mutex
	state shipperState

	mSegments  *obs.Counter
	mBytes     *obs.Counter
	mRecords   *obs.Counter
	mProbes    *obs.Counter
	mRetries   *obs.Counter
	mRewinds   *obs.Counter
	mThrottled *obs.Counter
	mErrors    *obs.Counter
	gLag       *obs.Gauge
	hShip      *obs.Histogram
}

// NewShipper validates cfg and loads the offset checkpoint, if present.
func NewShipper(cfg ShipperConfig) (*Shipper, error) {
	if cfg.SpoolDir == "" {
		return nil, fmt.Errorf("federation: ShipperConfig.SpoolDir is required")
	}
	if !validCollectorID(cfg.CollectorID) {
		return nil, fmt.Errorf("federation: invalid collector ID %q", cfg.CollectorID)
	}
	if cfg.Target == "" {
		return nil, fmt.Errorf("federation: ShipperConfig.Target is required")
	}
	if cfg.StateFile == "" {
		cfg.StateFile = filepath.Join(cfg.SpoolDir, ".shipper-"+cfg.CollectorID+".json")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultShipInterval
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.ShipTimeout <= 0 {
		cfg.ShipTimeout = DefaultShipTimeout
	}
	if cfg.MinShipRate <= 0 {
		cfg.MinShipRate = DefaultMinShipRate
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.sleep == nil {
		cfg.sleep = sleepCtx
	}
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{}
	}
	s := &Shipper{
		cfg:    cfg,
		client: client,
		state: shipperState{
			Format:    shipperCheckpointFormat,
			Collector: cfg.CollectorID,
			Shards:    make(map[string]*ShardProgress),
		},
	}
	if reg := cfg.Metrics; reg != nil {
		s.mSegments = reg.Counter("federation_shipper_segments_total", "Segments acknowledged by the receiver.")
		s.mBytes = reg.Counter("federation_shipper_bytes_total", "Payload bytes acknowledged by the receiver.")
		s.mRecords = reg.Counter("federation_shipper_records_total", "Records in acknowledged segments.")
		s.mProbes = reg.Counter("federation_shipper_probes_total", "Zero-length durability probes sent.")
		s.mRetries = reg.Counter("federation_shipper_retries_total", "Delivery attempts beyond the first.")
		s.mRewinds = reg.Counter("federation_shipper_rewinds_total", "Rewinds to the receiver's authoritative acked offset.")
		s.mThrottled = reg.Counter("federation_shipper_throttled_total", "429 backpressure responses honored.")
		s.mErrors = reg.Counter("federation_shipper_errors_total", "Segments abandoned after exhausting delivery attempts.")
		s.gLag = reg.Gauge("federation_shipper_lag_bytes", "Sealed spool bytes not yet acknowledged by the receiver.")
		s.hShip = reg.Histogram("federation_shipper_ship_seconds", "Per-segment delivery latency.", nil)
	}
	if err := s.loadState(); err != nil {
		return nil, err
	}
	return s, nil
}

// loadState restores the checkpoint file; a missing file is a fresh start,
// a malformed one is an error (silently restarting from zero would re-ship
// everything and mask corruption).
func (s *Shipper) loadState() error {
	raw, err := os.ReadFile(s.cfg.StateFile)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("federation: read shipper state: %w", err)
	}
	var st shipperState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("federation: parse shipper state %s: %w", s.cfg.StateFile, err)
	}
	if st.Format != shipperCheckpointFormat {
		return fmt.Errorf("federation: shipper state format %q, want %q", st.Format, shipperCheckpointFormat)
	}
	if st.Collector != s.cfg.CollectorID {
		return fmt.Errorf("federation: shipper state belongs to collector %q, running as %q", st.Collector, s.cfg.CollectorID)
	}
	if st.Shards == nil {
		st.Shards = make(map[string]*ShardProgress)
	}
	s.state = st
	return nil
}

// persistState writes the checkpoint atomically. Called with s.mu held.
func (s *Shipper) persistState() error {
	raw, err := json.Marshal(s.state)
	if err != nil {
		return err
	}
	tmp := s.cfg.StateFile + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("federation: write shipper state: %w", err)
	}
	if err := os.Rename(tmp, s.cfg.StateFile); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("federation: persist shipper state: %w", err)
	}
	return nil
}

// progress returns (a copy of) one shard's progress.
func (s *Shipper) progress(shard string) ShardProgress {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.state.Shards[shard]; p != nil {
		return *p
	}
	return ShardProgress{}
}

// setProgress updates one shard's progress and persists the checkpoint.
func (s *Shipper) setProgress(shard string, p ShardProgress) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.state.Shards[shard]
	if cur == nil {
		cur = &ShardProgress{}
		s.state.Shards[shard] = cur
	}
	*cur = p
	return s.persistState()
}

// ShipReport summarizes one PollOnce pass.
type ShipReport struct {
	// Segments acknowledged this pass (excluding duplicates and probes).
	Segments int
	// Bytes acknowledged this pass.
	Bytes int64
	// Records contained in those segments.
	Records int
	// Probes sent for shards awaiting durability confirmation.
	Probes int
	// Rewinds performed after 409 responses.
	Rewinds int
	// LagBytes is sealed-but-unacked bytes remaining after the pass.
	LagBytes int64
}

// PollOnce ships every sealed byte the receiver has not acknowledged, in
// shard order, then probes finished shards whose bytes are not yet
// durable at the receiver. It returns once the spool is drained (or an
// error stopped it); Run calls it on an interval.
func (s *Shipper) PollOnce(ctx context.Context) (ShipReport, error) {
	var rep ShipReport
	files, err := logio.SpoolFiles(s.cfg.SpoolDir, logio.SpoolPrefix)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return rep, nil // collector not started yet
		}
		return rep, err
	}
	for _, path := range files {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if err := s.shipShard(ctx, path, &rep); err != nil {
			return rep, fmt.Errorf("federation: ship %s: %w", filepath.Base(path), err)
		}
	}
	rep.LagBytes = 0
	for _, path := range files {
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		p := s.progress(filepath.Base(path))
		if p.Acked < fi.Size() {
			rep.LagBytes += fi.Size() - p.Acked
		}
	}
	s.gLag.Set(rep.LagBytes)
	return rep, nil
}

// shipShard brings one sealed shard's acked offset to its size, then
// probes for durability if needed.
func (s *Shipper) shipShard(ctx context.Context, path string, rep *ShipReport) error {
	shard := filepath.Base(path)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := fi.Size()
	p := s.progress(shard)
	if p.Acked > size {
		// Sealed shards are immutable; a shrunk one means the spool was
		// rebuilt under us. Refuse to guess.
		return fmt.Errorf("shard shrank below acked offset (%d < %d)", size, p.Acked)
	}
	p.Size = size

	consecutiveRewinds := 0
	for p.Acked < size {
		if err := ctx.Err(); err != nil {
			return err
		}
		payload, records, dayMin, dayMax, err := cutSegment(path, p.Acked, size, s.cfg.SegmentBytes)
		if err != nil {
			return err
		}
		m := Manifest{
			Format:    ManifestFormat,
			Collector: s.cfg.CollectorID,
			Shard:     shard,
			Offset:    p.Acked,
			Length:    int64(len(payload)),
			SHA256:    Digest(payload),
			Records:   records,
			ShardSize: size,
			DayMin:    dayMin,
			DayMax:    dayMax,
		}
		start := time.Now()
		resp, err := s.deliver(ctx, m, payload)
		if err != nil {
			s.mErrors.Inc()
			return err
		}
		s.hShip.Observe(time.Since(start).Seconds())
		switch {
		case resp.status == http.StatusConflict:
			// The receiver's acked offset is authoritative: rewind (an
			// aggregator restart rolled it back) or fast-forward (a lost
			// ack from a previous shipper incarnation).
			s.mRewinds.Inc()
			rep.Rewinds++
			consecutiveRewinds++
			if consecutiveRewinds > 3 {
				return fmt.Errorf("receiver keeps rejecting offsets (acked %d, ours %d): no convergence", resp.Acked, p.Acked)
			}
			s.cfg.Logf("federation: %s/%s: rewinding %d -> %d", s.cfg.CollectorID, shard, p.Acked, resp.Acked)
			p.Acked = resp.Acked
			p.Durable = min(p.Durable, resp.Acked)
		case resp.status == http.StatusOK:
			consecutiveRewinds = 0
			if !resp.Duplicate {
				s.mSegments.Inc()
				s.mBytes.Add(uint64(len(payload)))
				s.mRecords.Add(uint64(records))
				rep.Segments++
				rep.Bytes += int64(len(payload))
				rep.Records += records
			}
			p.Acked = resp.Acked
			p.Durable = resp.Durable
		default:
			return fmt.Errorf("receiver returned %d: %s", resp.status, resp.Error)
		}
		if err := s.setProgress(shard, p); err != nil {
			return err
		}
	}

	// Fully acked but not fully durable: probe, so a receiver that lost
	// in-memory acks in a crash tells us to rewind and re-ship the tail.
	if p.Durable < size {
		s.mProbes.Inc()
		rep.Probes++
		resp, err := s.deliver(ctx, Manifest{
			Format:    ManifestFormat,
			Collector: s.cfg.CollectorID,
			Shard:     shard,
			Offset:    p.Acked,
			ShardSize: size,
		}, nil)
		if err != nil {
			return err
		}
		switch resp.status {
		case http.StatusOK:
			p.Durable = resp.Durable
			if err := s.setProgress(shard, p); err != nil {
				return err
			}
		case http.StatusConflict:
			s.mRewinds.Inc()
			rep.Rewinds++
			s.cfg.Logf("federation: %s/%s: receiver lost acks, rewinding %d -> %d", s.cfg.CollectorID, shard, p.Acked, resp.Acked)
			p.Acked = resp.Acked
			p.Durable = min(p.Durable, resp.Acked)
			if err := s.setProgress(shard, p); err != nil {
				return err
			}
			return s.shipShard(ctx, path, rep) // re-ship the tail now
		default:
			return fmt.Errorf("probe returned %d: %s", resp.status, resp.Error)
		}
	}
	return nil
}

// segmentResult is a receiver response plus its HTTP status.
type segmentResult struct {
	SegmentResponse
	status     int
	retryAfter time.Duration
}

// attemptTimeout is the per-attempt deadline for a request carrying n
// body bytes: the configured floor plus the transfer time those bytes
// need at the assumed worst-case link rate.
func (s *Shipper) attemptTimeout(n int) time.Duration {
	return s.cfg.ShipTimeout + time.Duration(n)*time.Second/time.Duration(s.cfg.MinShipRate)
}

// deliver posts one framed segment with bounded retry: transport errors
// and 5xx back off exponentially, 429 honors Retry-After, and definitive
// answers (200, 409, 4xx) return immediately. Each attempt runs under its
// own deadline scaled to the segment size (see ShipperConfig.ShipTimeout),
// so a stalled connection fails the attempt instead of wedging the
// shipping loop, while a legitimately slow transfer of a big segment is
// given proportionally more time.
func (s *Shipper) deliver(ctx context.Context, m Manifest, payload []byte) (segmentResult, error) {
	var buf bytes.Buffer
	if err := EncodeSegment(&buf, m, payload); err != nil {
		return segmentResult{}, err
	}
	body := buf.Bytes()
	backoff := s.cfg.RetryBase
	var lastErr error
	for attempt := 0; attempt < s.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			s.mRetries.Inc()
			if err := s.cfg.sleep(ctx, backoff); err != nil {
				return segmentResult{}, err
			}
			backoff *= 2
		}
		attemptCtx, cancel := context.WithTimeout(ctx, s.attemptTimeout(len(body)))
		req, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, s.cfg.Target+SegmentsPath, bytes.NewReader(body))
		if err != nil {
			cancel()
			return segmentResult{}, err
		}
		req.Header.Set("Content-Type", SegmentContentType)
		httpResp, err := s.client.Do(req)
		if err != nil {
			cancel()
			if ctx.Err() != nil {
				// The caller's context died, not the attempt's deadline:
				// stop retrying entirely.
				return segmentResult{}, ctx.Err()
			}
			lastErr = err
			continue
		}
		res, err := parseSegmentResponse(httpResp)
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		switch {
		case res.status == http.StatusOK || res.status == http.StatusConflict:
			return res, nil
		case res.status == http.StatusTooManyRequests:
			// Backpressure: the receiver is draining its window into a
			// publish. Honor its Retry-After and try again without
			// consuming the exponential budget's growth.
			s.mThrottled.Inc()
			if err := s.cfg.sleep(ctx, res.retryAfter); err != nil {
				return segmentResult{}, err
			}
			lastErr = fmt.Errorf("receiver throttling (429)")
			backoff = s.cfg.RetryBase
		case res.status >= 500:
			lastErr = fmt.Errorf("receiver returned %d: %s", res.status, res.Error)
		default:
			// 4xx other than 409/429 is definitive: retrying identical
			// bytes cannot succeed.
			return res, nil
		}
	}
	return segmentResult{}, fmt.Errorf("giving up after %d attempts: %w", s.cfg.MaxAttempts, lastErr)
}

// parseSegmentResponse decodes a receiver reply, tolerating non-JSON error
// bodies from intermediaries.
func parseSegmentResponse(httpResp *http.Response) (segmentResult, error) {
	defer httpResp.Body.Close()
	res := segmentResult{status: httpResp.StatusCode, retryAfter: time.Second}
	if ra := httpResp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			res.retryAfter = time.Duration(secs) * time.Second
		}
	}
	raw, err := io.ReadAll(io.LimitReader(httpResp.Body, 64<<10))
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(raw, &res.SegmentResponse); err != nil && httpResp.StatusCode == http.StatusOK {
		return res, fmt.Errorf("malformed 200 response: %w", err)
	}
	return res, nil
}

// Run ships on every interval until ctx is done. Poll errors are logged,
// not fatal: an unreachable aggregator must not kill the collector.
func (s *Shipper) Run(ctx context.Context) {
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		if rep, err := s.PollOnce(ctx); err != nil {
			if ctx.Err() != nil {
				return
			}
			s.cfg.Logf("federation: ship: %v", err)
		} else if rep.Segments > 0 {
			s.cfg.Logf("federation: shipped %d segments, %d bytes, %d records (lag %d bytes)",
				rep.Segments, rep.Bytes, rep.Records, rep.LagBytes)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// cutSegment reads the next segment of a sealed shard (see
// logio.ReadSegment) and scans it for the record count and UTC day
// coverage the manifest advertises.
func cutSegment(path string, offset, size int64, segBytes int) (payload []byte, records int, dayMin, dayMax string, err error) {
	payload, text, err := logio.ReadSegment(path, offset, size, segBytes)
	if err != nil {
		return nil, 0, "", "", err
	}
	records, dayMin, dayMax = scanPayload(text)
	return payload, records, dayMin, dayMax, nil
}

// scanPayload counts complete lines and extracts the UTC day coverage
// from record timestamps. Lines that do not parse still count (the
// receiver decides how to treat them); only their days are unknown.
func scanPayload(text []byte) (records int, dayMin, dayMax string) {
	var lo, hi time.Time
	for len(text) > 0 {
		idx := bytes.IndexByte(text, '\n')
		if idx < 0 {
			break // incomplete trailing line (only possible on gzip content)
		}
		line := bytes.TrimSpace(text[:idx])
		text = text[idx+1:]
		if len(line) == 0 {
			continue
		}
		records++
		ts, ok := lineTime(line)
		if !ok || ts.IsZero() {
			continue
		}
		if lo.IsZero() || ts.Before(lo) {
			lo = ts
		}
		if hi.IsZero() || ts.After(hi) {
			hi = ts
		}
	}
	if !lo.IsZero() {
		dayMin = lo.UTC().Format("2006-01-02")
		dayMax = hi.UTC().Format("2006-01-02")
	}
	return records, dayMin, dayMax
}

// lineTime reads a record line's ts alone: from the codec's fast path
// when the line has the canonical form, else through encoding/json, so a
// line that is not a valid record still dates its segment when its ts
// parses.
func lineTime(line []byte) (time.Time, bool) {
	if ts, ok := beacon.CanonicalTime(line); ok {
		return ts, true
	}
	var v struct {
		Time time.Time `json:"ts"`
	}
	if json.Unmarshal(line, &v) != nil {
		return time.Time{}, false
	}
	return v.Time, true
}

// SpoolStats summarizes a collector's sealed spool and, when produced by a
// Shipper, how much of it the aggregator has accepted.
type SpoolStats struct {
	// Shards is the number of sealed shards present.
	Shards int `json:"shards"`
	// SealedBytes is the total size of sealed shards.
	SealedBytes int64 `json:"sealed_bytes"`
	// AckedBytes is how much the receiver has acknowledged (0 when not
	// shipping).
	AckedBytes int64 `json:"acked_bytes"`
	// DurableBytes is how much of AckedBytes a published aggregator
	// generation covers (0 when not shipping).
	DurableBytes int64 `json:"durable_bytes"`
	// OldestUnshippedAgeSeconds is the age of the oldest sealed shard not
	// yet fully acknowledged, 0 when everything shipped.
	OldestUnshippedAgeSeconds float64 `json:"oldest_unshipped_age_seconds"`
}

// ScanSpool summarizes a sealed spool without shipping state: every sealed
// shard counts as unshipped. beacond uses it for /v1/spool/stats when no
// shipper is configured.
func ScanSpool(dir string) (SpoolStats, error) {
	return scanSpool(dir, nil)
}

// Stats summarizes the spool this shipper watches, with acked and durable
// progress folded in.
func (s *Shipper) Stats() (SpoolStats, error) {
	s.mu.Lock()
	progress := make(map[string]ShardProgress, len(s.state.Shards))
	for shard, p := range s.state.Shards {
		progress[shard] = *p
	}
	s.mu.Unlock()
	return scanSpool(s.cfg.SpoolDir, progress)
}

func scanSpool(dir string, progress map[string]ShardProgress) (SpoolStats, error) {
	var st SpoolStats
	files, err := logio.SpoolFiles(dir, logio.SpoolPrefix)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return st, nil
		}
		return st, err
	}
	var oldest time.Time
	for _, path := range files {
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		st.Shards++
		st.SealedBytes += fi.Size()
		p := progress[filepath.Base(path)]
		st.AckedBytes += min(p.Acked, fi.Size())
		st.DurableBytes += min(p.Durable, fi.Size())
		if p.Acked < fi.Size() && (oldest.IsZero() || fi.ModTime().Before(oldest)) {
			oldest = fi.ModTime()
		}
	}
	if !oldest.IsZero() {
		st.OldestUnshippedAgeSeconds = time.Since(oldest).Seconds()
	}
	return st, nil
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

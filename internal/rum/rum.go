// Package rum implements the Real-User-Monitoring collection path: an HTTP
// collector that receives beacon records (NDJSON batches, as a CDN edge
// would spool them), aggregates them per block in memory, and optionally
// writes them to a JSONL spool; plus the client used by the beacon
// simulator. This is the live end-to-end path behind the paper's BEACON
// dataset.
package rum

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/logio"
	"cellspot/internal/obs"
	"cellspot/internal/obs/httpmw"
)

// MaxBodyBytes bounds one POST body; batches beyond it are rejected.
const MaxBodyBytes = 16 << 20

// bodyHint bounds what a POST's Content-Length alone makes the collector
// allocate before reading the body.
const bodyHint = 1 << 20

// Collector receives and aggregates beacon records.
type Collector struct {
	mu        sync.Mutex
	agg       *beacon.Aggregate
	spool     *logio.Spool
	line      []byte // spool encode buffer, reused under mu
	authToken string
	received  int
	rejected  int

	// Ingest metrics; nil without WithMetrics (obs metrics no-op on nil).
	mReceived     *obs.Counter
	mRejected     *obs.Counter
	mUnauthorized *obs.Counter
	mSpooled      *obs.Counter
	mBlocks       *obs.Gauge
}

// Option configures a Collector.
type Option func(*Collector)

// WithSpool writes every accepted record to the given spool in addition to
// aggregating it.
func WithSpool(sp *logio.Spool) Option {
	return func(c *Collector) { c.spool = sp }
}

// WithAuthToken requires batch posts to carry the shared secret in an
// Authorization: Bearer header — edge collectors are not open write
// endpoints. Stats remain unauthenticated (they are operational metadata).
func WithAuthToken(token string) Option {
	return func(c *Collector) { c.authToken = token }
}

// WithMetrics registers the collector's ingest metrics on reg:
//
//	rum_records_received_total  accepted records
//	rum_records_rejected_total  records rejected by validation or parsing
//	rum_unauthorized_total      posts refused for a missing/wrong token
//	rum_spooled_records_total   records written to the spool
//	rum_blocks                  distinct blocks in the live aggregate
func WithMetrics(reg *obs.Registry) Option {
	return func(c *Collector) {
		c.mReceived = reg.Counter("rum_records_received_total", "Beacon records accepted.")
		c.mRejected = reg.Counter("rum_records_rejected_total", "Beacon records rejected by validation or parsing.")
		c.mUnauthorized = reg.Counter("rum_unauthorized_total", "Beacon posts refused for a missing or wrong bearer token.")
		c.mSpooled = reg.Counter("rum_spooled_records_total", "Beacon records written to the disk spool.")
		c.mBlocks = reg.Gauge("rum_blocks", "Distinct blocks in the live aggregate.")
	}
}

// NewCollector creates an empty collector.
func NewCollector(opts ...Option) *Collector {
	c := &Collector{agg: beacon.NewAggregate()}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Stats reports collector counters.
type Stats struct {
	Received int `json:"received"`
	Rejected int `json:"rejected"`
	Blocks   int `json:"blocks"`
}

// Stats returns a snapshot of the collector's counters.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Received: c.received, Rejected: c.rejected, Blocks: c.agg.Blocks()}
}

// Snapshot returns a copy of the current aggregate.
func (c *Collector) Snapshot() *beacon.Aggregate {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := beacon.NewAggregate()
	out.Merge(c.agg)
	return out
}

// Close flushes the spool, if any.
func (c *Collector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spool == nil {
		return nil
	}
	return c.spool.Close()
}

// MountRoutes registers the collector's routes on r:
//
//	POST /v1/beacons — NDJSON beacon records (one JSON object per line)
//	GET  /v1/stats   — collector counters as JSON
func (c *Collector) MountRoutes(r httpmw.Router) {
	r.HandleFunc("POST /v1/beacons", c.handleBeacons)
	r.HandleFunc("GET /v1/stats", c.handleStats)
}

// Handler returns the collector's routes on a plain mux.
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	c.MountRoutes(mux)
	return mux
}

func (c *Collector) handleBeacons(w http.ResponseWriter, r *http.Request) {
	if c.authToken != "" {
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(c.authToken)) != 1 {
			c.mUnauthorized.Inc()
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
	}
	// Size the buffer from the declared length, so an honest body reads
	// without regrowth, up to a bound the header alone cannot raise.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), bodyHint)+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	body := buf.Bytes()
	var batch []beacon.Record
	msg, ok := "", false
	if err == nil {
		batch, msg, ok = decodeCanonicalBatch(body)
	}
	if !ok {
		batch, msg = decodeBatch(beacon.Replay(body, err))
	}
	if msg != "" {
		c.reject(1)
		http.Error(w, msg, http.StatusBadRequest)
		return
	}
	if err := c.accept(batch); err != nil {
		http.Error(w, "spool failure", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"accepted":%d}`+"\n", len(batch))
}

// decodeCanonicalBatch is decodeBatch's fast path over a body read whole
// without error: every line canonical (beacon.ParseCanonical), the last
// one with or without its newline. It gives what decodeBatch gives, and
// reports false, for decodeBatch to decide, at the first line that is not
// canonical.
func decodeCanonicalBatch(body []byte) (batch []beacon.Record, msg string, ok bool) {
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		rec, ok := beacon.ParseCanonical(line)
		if !ok {
			return nil, "", false
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Sprintf("invalid record %d: %v", len(batch), err), true
		}
		batch = append(batch, rec)
	}
	return batch, "", true
}

// decodeBatch decodes and validates a stream of JSON records. msg is the
// 400 message for the first record that does not decode or validate.
func decodeBatch(r io.Reader) (batch []beacon.Record, msg string) {
	dec := json.NewDecoder(r)
	for {
		var rec beacon.Record
		err := dec.Decode(&rec)
		if errors.Is(err, io.EOF) {
			return batch, ""
		}
		if err != nil {
			return nil, fmt.Sprintf("bad record after %d: %v", len(batch), err)
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Sprintf("invalid record %d: %v", len(batch), err)
		}
		batch = append(batch, rec)
	}
}

func (c *Collector) accept(batch []beacon.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rec := range batch {
		if c.spool != nil {
			line, err := beacon.AppendRecord(c.line[:0], rec)
			if err != nil {
				return err
			}
			c.line = line
			if err := c.spool.WriteLine(line); err != nil {
				return err
			}
			c.mSpooled.Inc()
		}
		c.agg.AddRecord(rec)
		c.received++
		c.mReceived.Inc()
	}
	c.mBlocks.Set(int64(c.agg.Blocks()))
	return nil
}

func (c *Collector) reject(n int) {
	c.mu.Lock()
	c.rejected += n
	c.mu.Unlock()
	c.mRejected.Add(uint64(n))
}

func (c *Collector) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(c.Stats()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Client posts beacon batches to a collector.
type Client struct {
	// BaseURL is the collector root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 10s timeout.
	HTTPClient *http.Client
	// BatchSize bounds records per POST (default 500).
	BatchSize int
	// AuthToken, when set, is sent as a Bearer token on beacon posts.
	AuthToken string
}

func (cl *Client) httpClient() *http.Client {
	if cl.HTTPClient != nil {
		return cl.HTTPClient
	}
	return &http.Client{Timeout: 10 * time.Second}
}

func (cl *Client) batchSize() int {
	if cl.BatchSize > 0 {
		return cl.BatchSize
	}
	return 500
}

// Post sends records in batches; it stops at the first failure.
func (cl *Client) Post(ctx context.Context, records []beacon.Record) error {
	bs := cl.batchSize()
	for start := 0; start < len(records); start += bs {
		end := min(start+bs, len(records))
		if err := cl.postBatch(ctx, records[start:end]); err != nil {
			return fmt.Errorf("rum: batch at %d: %w", start, err)
		}
	}
	return nil
}

func (cl *Client) postBatch(ctx context.Context, batch []beacon.Record) error {
	var body []byte
	for _, rec := range batch {
		var err error
		if body, err = beacon.AppendRecord(body, rec); err != nil {
			return err
		}
		body = append(body, '\n')
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.BaseURL+"/v1/beacons", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if cl.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+cl.AuthToken)
	}
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("collector returned %s: %s", resp.Status, msg)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// FetchStats retrieves the collector's counters.
func (cl *Client) FetchStats(ctx context.Context) (Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.BaseURL+"/v1/stats", nil)
	if err != nil {
		return Stats{}, err
	}
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		return Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Stats{}, fmt.Errorf("collector returned %s", resp.Status)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Stats{}, err
	}
	return st, nil
}

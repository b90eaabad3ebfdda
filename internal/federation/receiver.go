package federation

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"cellspot/internal/live"
	"cellspot/internal/logio"
	"cellspot/internal/obs"
	"cellspot/internal/obs/httpmw"
	"cellspot/internal/snapshot"
)

const (
	// DefaultMaxPending bounds segments folded between publishes; beyond
	// it the receiver answers 429 until the next Tick drains the backlog
	// into a generation.
	DefaultMaxPending = 4096
	// DefaultRetryAfter is the Retry-After advertised on 429.
	DefaultRetryAfter = 2 * time.Second
)

// SegmentResponse is the receiver's JSON reply to a segment POST. Acked is
// authoritative: on 409 the shipper must resume from it.
type SegmentResponse struct {
	// Acked is how far the receiver has accepted this (collector, shard),
	// in bytes. Advisory until a generation publishes.
	Acked int64 `json:"acked"`
	// Durable is how much of Acked a published checkpoint covers — bytes
	// that survive a receiver crash.
	Durable int64 `json:"durable"`
	// Duplicate marks a 200 that folded nothing because the segment was
	// entirely behind Acked (a replay).
	Duplicate bool `json:"duplicate,omitempty"`
	// Error carries the reason on non-200 responses.
	Error string `json:"error,omitempty"`
}

// ReceiverConfig parameterizes a Receiver.
type ReceiverConfig struct {
	// WindowDays is the sliding window span (live.DefaultWindowDays when
	// <= 0).
	WindowDays int
	// Threshold is the classifier operating point
	// (classify.DefaultThreshold when 0).
	Threshold float64
	// Inputs is the side data for the map-build chain; Inputs.ASOf is
	// required.
	Inputs live.MapInputs
	// Store receives published generations (required).
	Store *snapshot.Store
	// Keep bounds retained generations (live.DefaultKeep when <= 0).
	Keep int
	// MaxInflight bounds concurrently decoded segment requests (0 =
	// unbounded). Each in-flight request may buffer a full segment before
	// the fold even starts, so under a shipper stampede this gate sheds
	// with 429 + Retry-After before memory does; refused shippers back off
	// and retry, exactly as for the DefaultMaxPending backlog 429.
	MaxInflight int
	// RetryAfter is advertised on 429 (DefaultRetryAfter when <= 0).
	RetryAfter time.Duration
	// Interval is the Run publish cadence (live.DefaultInterval when <= 0).
	Interval time.Duration
	// Metrics, when non-nil, registers the aggregation core's live_*
	// families (see live.Config.Metrics) and the receiver's own:
	//
	//	federation_recv_segments_total        segments folded
	//	federation_recv_records_total         records folded into the window
	//	federation_recv_bytes_total           payload bytes folded
	//	federation_recv_duplicates_total      replayed segments absorbed
	//	federation_recv_rejects_total         409 offset mismatches
	//	federation_recv_digest_mismatch_total segments refused on digest
	//	federation_recv_bad_requests_total    malformed segment requests
	//	federation_recv_throttled_total       429 backpressure responses
	//	federation_recv_shed_total            429 admission-control refusals
	//	federation_recv_probes_total          zero-length probes answered
	//	federation_recv_bad_lines_total       malformed, invalid or oversize payload lines skipped
	//	federation_recv_fold_seconds          per-segment fold latency
	Metrics *obs.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Receiver is the federation plane's HTTP input adapter: it accepts
// framed segments from any number of shippers, verifies them, and folds
// each exactly once into the embedded aggregation core, whose Tick and Run
// publish generations binding the window to the acked offsets that
// produced it. Safe for concurrent use.
type Receiver struct {
	*live.Aggregator

	maxInflight int64
	retryAfter  time.Duration
	inflight    atomic.Int64

	mSegments  *obs.Counter
	mRecords   *obs.Counter
	mBytes     *obs.Counter
	mDup       *obs.Counter
	mRejects   *obs.Counter
	mDigest    *obs.Counter
	mBadReq    *obs.Counter
	mThrottled *obs.Counter
	mShed      *obs.Counter
	mProbes    *obs.Counter
	mBadLines  *obs.Counter
	hFold      *obs.Histogram
}

// NewReceiver validates cfg and starts the aggregation core, which
// recovers window state and acked offsets from the checkpoint of the
// store's current generation, if any. Without a usable checkpoint it
// starts empty with zero offsets — shippers will simply re-ship, and their
// sealed spools make that safe.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	agg, err := live.NewAggregator(live.Config{
		WindowDays: cfg.WindowDays,
		Interval:   cfg.Interval,
		Threshold:  cfg.Threshold,
		Inputs:     cfg.Inputs,
		Store:      cfg.Store,
		Keep:       cfg.Keep,
		Metrics:    cfg.Metrics,
		Logf:       cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	r := &Receiver{
		Aggregator:  agg,
		maxInflight: int64(cfg.MaxInflight),
		retryAfter:  cfg.RetryAfter,
	}
	if reg := cfg.Metrics; reg != nil {
		r.mSegments = reg.Counter("federation_recv_segments_total", "Segments folded into the window.")
		r.mRecords = reg.Counter("federation_recv_records_total", "Records folded into the window.")
		r.mBytes = reg.Counter("federation_recv_bytes_total", "Payload bytes folded.")
		r.mDup = reg.Counter("federation_recv_duplicates_total", "Replayed segments acknowledged without folding.")
		r.mRejects = reg.Counter("federation_recv_rejects_total", "Segments rejected with 409 for an offset mismatch.")
		r.mDigest = reg.Counter("federation_recv_digest_mismatch_total", "Segments refused because the payload digest did not match the manifest.")
		r.mBadReq = reg.Counter("federation_recv_bad_requests_total", "Malformed segment requests refused.")
		r.mThrottled = reg.Counter("federation_recv_throttled_total", "Segments pushed back with 429 while draining.")
		r.mShed = reg.Counter("federation_recv_shed_total", "Segment requests refused by admission control (in-flight bound).")
		r.mProbes = reg.Counter("federation_recv_probes_total", "Zero-length durability probes answered.")
		r.mBadLines = reg.Counter("federation_recv_bad_lines_total", "Malformed or invalid payload lines skipped while folding.")
		r.hFold = reg.Histogram("federation_recv_fold_seconds", "Per-segment verify+fold latency.", nil)
	}
	return r, nil
}

// MountRoutes registers the federation routes on mux.
func (r *Receiver) MountRoutes(mux httpmw.Router) {
	mux.HandleFunc("POST "+SegmentsPath, r.handleSegments)
	mux.HandleFunc("GET "+StatusPath, r.handleStatus)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (r *Receiver) handleSegments(w http.ResponseWriter, req *http.Request) {
	// Admission control before the body is read: each in-flight request
	// may buffer a full segment, so the bound is a memory ceiling.
	if r.maxInflight > 0 {
		if r.inflight.Add(1) > r.maxInflight {
			r.inflight.Add(-1)
			r.mShed.Inc()
			r.setRetryAfter(w)
			writeJSON(w, http.StatusTooManyRequests, SegmentResponse{Error: "receiver at capacity, retry"})
			return
		}
		defer r.inflight.Add(-1)
	}
	start := time.Now()
	m, payload, err := DecodeSegment(http.MaxBytesReader(w, req.Body, MaxManifestBytes+logio.MaxSegmentBytes+2))
	if err != nil {
		r.mBadReq.Inc()
		writeJSON(w, http.StatusBadRequest, SegmentResponse{Error: err.Error()})
		return
	}
	var status int
	var resp SegmentResponse
	r.Fold(func(f live.Folder) { status, resp = r.accept(f, m, payload) })
	if status == http.StatusTooManyRequests {
		r.setRetryAfter(w)
	}
	if status == http.StatusOK && !m.IsProbe() && !resp.Duplicate {
		r.hFold.Observe(time.Since(start).Seconds())
	}
	writeJSON(w, status, resp)
}

func (r *Receiver) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(int(r.retryAfter.Round(time.Second)/time.Second)))
}

// accept applies the exactly-once fold rules to one decoded segment,
// inside the aggregation core's Fold, and returns the HTTP status plus
// response body.
func (r *Receiver) accept(f live.Folder, m Manifest, payload []byte) (int, SegmentResponse) {
	key := m.Collector + "/" + m.Shard
	acked, durable := f.Offsets(key)

	if m.IsProbe() {
		// Probes are read-only: answer them even while draining, so a
		// shipper's durability loop keeps converging during publishes.
		r.mProbes.Inc()
		if m.Offset > acked {
			// The shipper believes more was acked than we do — we lost
			// unpublished acks in a restart. Send it back.
			return http.StatusConflict, SegmentResponse{Acked: acked, Durable: durable, Error: "offset ahead of acked"}
		}
		return http.StatusOK, SegmentResponse{Acked: acked, Durable: durable}
	}

	// Replay: entirely behind the acked offset. Ack without folding.
	if m.Offset+m.Length <= acked {
		r.mDup.Inc()
		return http.StatusOK, SegmentResponse{Acked: acked, Durable: durable, Duplicate: true}
	}
	// Overlap or gap: only a segment starting exactly at acked can fold.
	if m.Offset != acked {
		r.mRejects.Inc()
		return http.StatusConflict, SegmentResponse{Acked: acked, Durable: durable,
			Error: fmt.Sprintf("segment at %d, acked %d", m.Offset, acked)}
	}
	// Backpressure: the window is draining into a publish, or too much is
	// pending. Folding now would either race the snapshot or grow the
	// unpublished (crash-vulnerable) backlog without bound.
	if f.Busy(DefaultMaxPending) {
		r.mThrottled.Inc()
		return http.StatusTooManyRequests, SegmentResponse{Acked: acked, Durable: durable, Error: "draining"}
	}
	if got := Digest(payload); got != m.SHA256 {
		r.mDigest.Inc()
		return http.StatusBadRequest, SegmentResponse{Acked: acked, Durable: durable,
			Error: fmt.Sprintf("digest mismatch: manifest %s, payload %s", m.SHA256, got)}
	}
	text := payload
	if m.Gzipped() {
		// A gzip stream cannot be decoded from a mid-stream offset, so
		// gzip shards are only acceptable whole.
		if m.Offset != 0 || m.Length != m.ShardSize {
			r.mBadReq.Inc()
			return http.StatusBadRequest, SegmentResponse{Acked: acked, Durable: durable,
				Error: "gzip shards must ship as one whole-file segment"}
		}
		var err error
		if text, err = logio.Gunzip(payload); err != nil {
			r.mBadReq.Inc()
			return http.StatusBadRequest, SegmentResponse{Acked: acked, Durable: durable,
				Error: "gzip payload unreadable: " + err.Error()}
		}
	}

	st := live.FoldPayload(f, m.Collector, text)
	r.mBadLines.Add(uint64(st.Bad + st.Oversize))
	r.mSegments.Inc()
	r.mRecords.Add(uint64(st.Records))
	r.mBytes.Add(uint64(len(payload)))
	f.Commit(key, m.Offset+m.Length)
	return http.StatusOK, SegmentResponse{Acked: m.Offset + m.Length, Durable: durable}
}

// handleStatus serves the aggregator's live.Status on StatusPath.
func (r *Receiver) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, r.Status())
}

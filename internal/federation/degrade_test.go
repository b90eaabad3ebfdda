package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cellspot/internal/obs"
	"cellspot/internal/snapshot"
)

// ackTransport answers segment POSTs in-process, recording the context
// deadline budget of every request. Segments ack fully but report zero
// durable bytes, so the shipper follows up with exactly one probe (whose
// budget should be the bare floor — probes carry no payload).
type ackTransport struct {
	mu   sync.Mutex
	reqs []struct {
		probe   bool
		bodyLen int
		budget  time.Duration
	}
}

func (tr *ackTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	deadline, ok := req.Context().Deadline()
	if !ok {
		return nil, fmt.Errorf("request carries no deadline")
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	m, payload, err := DecodeSegment(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	tr.mu.Lock()
	tr.reqs = append(tr.reqs, struct {
		probe   bool
		bodyLen int
		budget  time.Duration
	}{m.IsProbe(), len(body), time.Until(deadline)})
	tr.mu.Unlock()

	resp := SegmentResponse{Acked: m.Offset + int64(len(payload))}
	if m.IsProbe() {
		resp.Acked = m.Offset
		resp.Durable = m.Offset // the probe confirms full durability
	}
	raw, _ := json.Marshal(resp)
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(bytes.NewReader(raw)),
		Header:     make(http.Header),
	}, nil
}

// TestShipperDeadlineScalesWithSegment pins satellite behavior: instead of
// one flat client timeout, every attempt gets ShipTimeout plus transfer
// time for its actual body at MinShipRate — so big segments on slow links
// are not killed early, while probes keep a tight deadline.
func TestShipperDeadlineScalesWithSegment(t *testing.T) {
	spool := t.TempDir()
	writeSpool(t, spool, genRecords(300, 17000, 4), 0, false)

	const (
		floor = 2 * time.Second
		rate  = 1 << 10 // 1 KiB/s: a 20 KiB shard adds ~20s
	)
	tr := &ackTransport{}
	s, err := NewShipper(ShipperConfig{
		SpoolDir:    spool,
		CollectorID: "c1",
		Target:      "http://aggregator",
		ShipTimeout: floor,
		MinShipRate: rate,
		HTTPClient:  &http.Client{Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.PollOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments == 0 || rep.Probes == 0 {
		t.Fatalf("expected segments and a durability probe, got %+v", rep)
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	segs, probes := 0, 0
	for _, r := range tr.reqs {
		want := floor + time.Duration(r.bodyLen)*time.Second/time.Duration(rate)
		// The budget was measured inside RoundTrip, so it only shrinks from
		// want; a second of slack covers the hop.
		if r.budget > want || r.budget < want-time.Second {
			t.Fatalf("request (probe=%v, %d bytes): deadline budget %v, want ~%v",
				r.probe, r.bodyLen, r.budget, want)
		}
		if r.probe {
			probes++
			if r.budget > floor+time.Second {
				t.Fatalf("probe budget %v not anchored at the %v floor", r.budget, floor)
			}
		} else {
			segs++
			if r.budget < floor+10*time.Second {
				t.Fatalf("segment budget %v did not scale with its %d-byte body", r.budget, r.bodyLen)
			}
		}
	}
	if segs == 0 || probes == 0 {
		t.Fatalf("transport saw %d segments, %d probes", segs, probes)
	}
}

// throttledTransport drains request bodies at a trickle far below any
// MinShipRate, never answering: only the per-attempt deadline can end the
// exchange.
type throttledTransport struct{}

func (throttledTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	defer req.Body.Close()
	buf := make([]byte, 1)
	for {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(2 * time.Millisecond):
			if _, err := req.Body.Read(buf); err != nil {
				// Body exhausted; keep stalling until the deadline fires.
				<-req.Context().Done()
				return nil, req.Context().Err()
			}
		}
	}
}

// TestShipperThrottledTransportFailsByDeadline is the regression for the
// old flat 30s client timeout: with no flat timeout on the default client,
// a stalled transfer must be ended by the scaled per-attempt deadline, not
// hang the shipping loop forever.
func TestShipperThrottledTransportFailsByDeadline(t *testing.T) {
	spool := t.TempDir()
	writeSpool(t, spool, genRecords(50, 17000, 4), 0, false)

	s, err := NewShipper(ShipperConfig{
		SpoolDir:    spool,
		CollectorID: "c1",
		Target:      "http://aggregator",
		ShipTimeout: 50 * time.Millisecond,
		MinShipRate: 1 << 30, // transfer component ~0: the floor governs
		MaxAttempts: 2,
		RetryBase:   time.Millisecond,
		HTTPClient:  &http.Client{Transport: throttledTransport{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = s.PollOnce(context.Background())
	if err == nil {
		t.Fatal("throttled transport did not fail the poll")
	}
	if !strings.Contains(err.Error(), "giving up after 2 attempts") {
		t.Fatalf("unexpected error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the stalled attempts: %v elapsed", elapsed)
	}
}

// TestShipperCallerCancelStopsRetrying: a dead caller context ends
// delivery immediately instead of burning the remaining attempts.
func TestShipperCallerCancelStopsRetrying(t *testing.T) {
	spool := t.TempDir()
	writeSpool(t, spool, genRecords(50, 17000, 4), 0, false)

	s, err := NewShipper(ShipperConfig{
		SpoolDir:    spool,
		CollectorID: "c1",
		Target:      "http://aggregator",
		ShipTimeout: time.Minute,
		MaxAttempts: 8,
		RetryBase:   time.Millisecond,
		HTTPClient:  &http.Client{Transport: throttledTransport{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := s.PollOnce(ctx); err == nil {
		t.Fatal("cancelled poll reported success")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation did not cut the attempt short: %v elapsed", elapsed)
	}
}

// TestReceiverAdmissionControlSheds: with MaxInflight 1, a request holding
// the only slot (its body still streaming in) makes the receiver shed the
// next one with 429 + Retry-After before buffering its body; the held
// request still completes once its body arrives.
func TestReceiverAdmissionControlSheds(t *testing.T) {
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	recv, err := NewReceiver(ReceiverConfig{
		Inputs:      testInputs(),
		Store:       store,
		RetryAfter:  time.Second,
		MaxInflight: 1,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	recv.MountRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Hold the only slot: the admission gate admits before DecodeSegment
	// reads the body, so an unfinished body pins the slot. Closing the pipe
	// on every exit path unblocks the server, so a failure can never hang
	// the test.
	pr, pw := io.Pipe()
	defer pw.CloseWithError(errors.New("test finished"))
	held := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(srv.URL+SegmentsPath, SegmentContentType, pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		held <- resp
	}()

	probe := func() *http.Response {
		var buf bytes.Buffer
		m := Manifest{Format: ManifestFormat, Collector: "c2", Shard: "beacon-0000.jsonl", ShardSize: 10}
		if err := EncodeSegment(&buf, m, nil); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+SegmentsPath, SegmentContentType, &buf)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	// Pin the slot deterministically: no other request is in flight, so
	// once the count reaches one the held request owns the slot.
	deadline := time.Now().Add(5 * time.Second)
	for recv.inflight.Load() == 0 {
		select {
		case resp := <-held:
			t.Fatalf("held request finished before taking the slot: %+v", resp)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("held request never took the admission slot")
		}
		time.Sleep(time.Millisecond)
	}
	shed := probe()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("probe with the slot held: status %d, want 429", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	// Complete the held request: a probe frame for a fresh shard.
	var frame bytes.Buffer
	m := Manifest{Format: ManifestFormat, Collector: "c1", Shard: "beacon-0000.jsonl", ShardSize: 10}
	if err := EncodeSegment(&frame, m, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if resp := <-held; resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("held request: %+v", resp)
	}

	// Slot free again: probes serve normally.
	if resp := probe(); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release probe: status %d", resp.StatusCode)
	}
	if n := reg.Counter("federation_recv_shed_total", "").Value(); n == 0 {
		t.Fatal("federation_recv_shed_total not incremented")
	}
}

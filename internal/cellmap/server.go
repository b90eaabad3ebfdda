package cellmap

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/netip"
	"strconv"
	"sync"

	"cellspot/internal/beacon"
	"cellspot/internal/obs/httpmw"
)

// LookupResponse is the JSON answer of the lookup service.
type LookupResponse struct {
	Addr     string  `json:"addr"`
	Cellular bool    `json:"cellular"`
	Prefix   string  `json:"prefix,omitempty"`
	ASN      uint32  `json:"asn,omitempty"`
	Country  string  `json:"country,omitempty"`
	Ratio    float64 `json:"ratio,omitempty"`
	DU       float64 `json:"du,omitempty"`
	// RAT is the prefix's [3G, 4G, 5G] traffic split; absent on legacy
	// maps without the RAT column and on non-cellular answers.
	RAT []float64 `json:"rat,omitempty"`
	// Generation is the map generation the answer was resolved against;
	// 0 for a statically loaded map. In a sharded cluster it lets clients
	// (and the gateway's consistency guard) see which snapshot answered.
	Generation uint64 `json:"generation,omitempty"`
	// Degraded marks a placeholder, not an answer: the shard owning this
	// address was unreachable and the gateway was configured to return
	// partial batches. All data fields are zero; retry for a real answer.
	Degraded bool `json:"degraded,omitempty"`
}

// BatchRequest is the body of POST /v1/lookup/batch.
type BatchRequest struct {
	IPs []string `json:"ips"`
}

// BatchResponse answers a batch lookup. Every result was resolved against
// the single map generation named in Generation — a batch never mixes
// generations, whether answered by one node or scatter-gathered across a
// cluster. When Degraded is set (gateway degraded mode only), a minority
// of shards was unreachable and their results are per-address placeholders
// with Degraded set; all real results still share one generation.
type BatchResponse struct {
	Generation uint64           `json:"generation"`
	Results    []LookupResponse `json:"results"`
	Degraded   bool             `json:"degraded,omitempty"`
}

// DefaultBatchLimit caps how many addresses one batch request may carry.
const DefaultBatchLimit = 1024

// maxBatchBody bounds the batch request body; at the address-count cap a
// request is far below this, so hitting it means a hostile or broken client.
const maxBatchBody = 1 << 20

// ErrorResponse is the JSON body of every non-2xx answer: clients of a
// JSON API get JSON on the error path too, with the same Content-Type.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Info summarizes a served map.
type Info struct {
	Format    string  `json:"format"`
	Period    string  `json:"period"`
	Threshold float64 `json:"threshold"`
	Entries   int     `json:"entries"`
	TotalDU   float64 `json:"total_du"`
	// Generation is the snapshot-store generation being served; 0 for a
	// statically loaded map.
	Generation uint64 `json:"generation"`
}

// Resolver answers generation-addressed requests from a node's retained
// history; *history.Index satisfies it. The timeline and generation-list
// answers come back ready to encode, so this package need not know their
// types.
type Resolver interface {
	At(seq uint64) (*Map, error)
	TimelineBody(addr netip.Addr, name string) (any, error)
	GenerationsBody() any
}

// Gate restricts a node to its shard of the keyspace; *cluster.ShardView
// satisfies it.
type Gate interface {
	// Guard wraps a lookup, batch or history handler with the shard's
	// degradation policy (deadline enforcement, in-flight bound).
	Guard(next http.HandlerFunc) http.HandlerFunc
	// Misrouted returns nil when the shard owns addr; otherwise it counts
	// the misroute and returns the error a 421 answer carries.
	Misrouted(addr netip.Addr) error
}

// MountSource registers the lookup service over src alone: Mount with
// neither history nor a shard gate.
func MountSource(r httpmw.Router, src Source) {
	Mount(r, src, nil, nil)
}

// Mount registers the lookup service's routes on r — the lookup
// microservice a CDN would put in front of the published dataset, and the
// one serving surface of every map-serving node:
//
//	GET  /v1/lookup?ip=ADDR[&gen=N] — per-address cellular lookup
//	POST /v1/lookup/batch           — many addresses, one generation
//	GET  /v1/info                   — dataset metadata, including the generation
//	GET  /v1/history?ip=ADDR        — label change-points (res only)
//	GET  /v1/generations            — retained generations (res only)
//
// res, when non-nil, answers gen=N from a pinned past generation (404 for
// one no longer retained); without it gen=N is a 400. gate, when non-nil,
// refuses addresses outside the shard with 421 and runs lookup, batch and
// history behind gate.Guard; info and generations stay exempt. Checks run
// in order: parse, then ownership, then resolving the generation — so a
// misrouted request never pins a generation on the wrong shard. Pass an
// absent input as untyped nil, not as a nil pointer.
//
// Every request resolves src.Current() (or res.At) exactly once and
// answers entirely from that map, so a concurrent hot swap can never make
// one response mix two generations; a gen=N answer takes the same
// LookupAddr/WriteJSON path, byte-identical to serving N as current. Maps
// are immutable once built, so the handlers are safe for any number of
// concurrent requests.
func Mount(r httpmw.Router, src Source, res Resolver, gate Gate) {
	guard := func(h http.HandlerFunc) http.HandlerFunc { return h }
	if gate != nil {
		guard = gate.Guard
	}
	owned := func(w http.ResponseWriter, addr netip.Addr) bool {
		if gate == nil {
			return true
		}
		if err := gate.Misrouted(addr); err != nil {
			WriteError(w, http.StatusMisdirectedRequest, err.Error())
			return false
		}
		return true
	}
	r.HandleFunc("GET /v1/lookup", guard(func(w http.ResponseWriter, r *http.Request) {
		addr, name, ok := ParseLookupAddr(w, r)
		if !ok || !owned(w, addr) {
			return
		}
		seq, ok := ParseGen(w, r)
		if !ok {
			return
		}
		if seq == 0 {
			m, gen := src.Current()
			WriteJSON(w, LookupAddr(m, gen, addr, name))
			return
		}
		if res == nil {
			WriteError(w, http.StatusBadRequest,
				"gen parameter is not supported on nodes without history; use GET /v1/lookup?ip=X for the current generation")
			return
		}
		m, err := res.At(seq)
		if err != nil {
			writeAtError(w, err)
			return
		}
		WriteJSON(w, LookupAddr(m, seq, addr, name))
	}))
	r.HandleFunc("POST /v1/lookup/batch", guard(func(w http.ResponseWriter, r *http.Request) {
		addrs, names, ok := DecodeBatch(w, r)
		if !ok {
			return
		}
		for _, a := range addrs {
			if !owned(w, a) {
				return
			}
		}
		m, gen := src.Current()
		resp := BatchResponse{Generation: gen, Results: make([]LookupResponse, 0, len(addrs))}
		for i, a := range addrs {
			resp.Results = append(resp.Results, LookupAddr(m, gen, a, names[i]))
		}
		WriteJSON(w, resp)
	}))
	r.HandleFunc("GET /v1/info", func(w http.ResponseWriter, _ *http.Request) {
		m, gen := src.Current()
		WriteJSON(w, Info{
			Format:     formatName,
			Period:     m.Period,
			Threshold:  m.Threshold,
			Entries:    m.Len(),
			TotalDU:    m.TotalDU(),
			Generation: gen,
		})
	})
	if res == nil {
		return
	}
	r.HandleFunc("GET /v1/history", guard(func(w http.ResponseWriter, r *http.Request) {
		addr, name, ok := ParseLookupAddr(w, r)
		if !ok || !owned(w, addr) {
			return
		}
		body, err := res.TimelineBody(addr, name)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "history walk: "+err.Error())
			return
		}
		WriteJSON(w, body)
	}))
	r.HandleFunc("GET /v1/generations", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, res.GenerationsBody())
	})
}

// LookupAddr resolves one address against m and shapes the service answer,
// stamped with the generation m belongs to. name is the textual form of
// addr to echo back — handlers pass the string the client sent, so the
// whole call is allocation-free: the index walk is flat-array only, the
// prefix string is cached at build time, and every other field is a value
// copy. The allocation regression test pins this at 0 allocs/op.
func LookupAddr(m *Map, gen uint64, addr netip.Addr, name string) LookupResponse {
	resp := LookupResponse{Addr: name, Generation: gen}
	if i, ok := m.lookupIdx(addr); ok {
		e := &m.entries[i]
		resp.Cellular = true
		resp.Prefix = m.prefixStr[i]
		resp.ASN = e.ASN
		resp.Country = e.Country
		resp.Ratio = e.Ratio
		resp.DU = e.DU
		// Slice-header copy of the immutable entry's column: alloc-free.
		resp.RAT = e.RAT
	}
	return resp
}

// ParseLookupAddr extracts and validates the ip query parameter, answering
// the error itself (JSON body, like every error path) when absent or bad.
// It returns both the parsed address and the string the client sent, so
// the answer can echo the request without re-stringifying.
func ParseLookupAddr(w http.ResponseWriter, r *http.Request) (netip.Addr, string, bool) {
	q := r.URL.Query().Get("ip")
	if q == "" {
		WriteError(w, http.StatusBadRequest, "missing ip parameter")
		return netip.Addr{}, "", false
	}
	addr, err := netip.ParseAddr(q)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad ip: "+err.Error())
		return netip.Addr{}, "", false
	}
	return addr, q, true
}

// ParseGen reads the optional gen query parameter: 0 when absent, else
// the positive generation number. A malformed or zero value is answered
// with a 400 here, and ok is false.
func ParseGen(w http.ResponseWriter, r *http.Request) (seq uint64, ok bool) {
	q := r.URL.Query()
	if !q.Has("gen") {
		return 0, true
	}
	seq, err := strconv.ParseUint(q.Get("gen"), 10, 64)
	if err != nil || seq == 0 {
		WriteError(w, http.StatusBadRequest, "bad gen: want a positive generation number")
		return 0, false
	}
	return seq, true
}

// DecodeBatch reads and validates a batch lookup body, enforcing the
// DefaultBatchLimit address-count cap and the body-size bound. On any
// failure it writes the JSON error response itself — 413 on overflow, 400
// otherwise — and returns ok=false. It returns the parsed addresses alongside the strings
// the client sent (position-matched), so handlers can echo without
// re-stringifying. Shared by Mount and the gateway so every tier speaks
// the identical wire format and enforces the same cap.
func DecodeBatch(w http.ResponseWriter, r *http.Request) ([]netip.Addr, []string, bool) {
	// The batch path serves only the current generation; silently ignoring
	// a gen parameter would answer a history query with current data.
	// Reject it outright until batch history serving exists.
	if r.URL.Query().Has("gen") {
		WriteError(w, http.StatusBadRequest,
			"gen parameter is not supported on batch lookups; use GET /v1/lookup?ip=X&gen=N per address")
		return nil, nil, false
	}
	ips, err := readBatch(w, r)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch body exceeds %d bytes", tooBig.Limit))
			return nil, nil, false
		}
		WriteError(w, http.StatusBadRequest, "bad batch request: "+err.Error())
		return nil, nil, false
	}
	if len(ips) == 0 {
		WriteError(w, http.StatusBadRequest, "empty batch: body must carry a non-empty ips array")
		return nil, nil, false
	}
	if len(ips) > DefaultBatchLimit {
		WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d addresses exceeds limit %d", len(ips), DefaultBatchLimit))
		return nil, nil, false
	}
	addrs := make([]netip.Addr, 0, len(ips))
	for i, s := range ips {
		a, err := netip.ParseAddr(s)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad ip at index %d: %v", i, err))
			return nil, nil, false
		}
		addrs = append(addrs, a)
	}
	return addrs, ips, true
}

// bufPool holds the buffers batch bodies are read into and answers are
// encoded into. Neither outlives its request: the strings decoded from a
// body are copies, and a Write does not retain what it writes.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// readBatch reads a batch body under the maxBatchBody bound and returns
// its ips. A canonical body, read without error, takes the codec's fast
// path. Any other body, and any read that failed, is replayed, bytes
// then error, through the json.Decoder that decides it: the decoder reads
// only up to the end of the first value, so trailing bytes and a body
// over the bound behave as they do when it reads the request directly.
func readBatch(w http.ResponseWriter, r *http.Request) ([]string, error) {
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	buf := bytes.NewBuffer((*bp)[:0])
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBatchBody))
	*bp = buf.Bytes()
	if err == nil {
		if ips, ok := parseBatchRequest(*bp); ok {
			return ips, nil
		}
	}
	var req BatchRequest
	if err := json.NewDecoder(beacon.Replay(*bp, err)).Decode(&req); err != nil {
		return nil, err
	}
	return req.IPs, nil
}

// WriteJSON encodes v (AppendJSON) before touching the ResponseWriter, so
// an encoding failure can still produce a well-formed 500 instead of a
// half-written 200.
func WriteJSON(w http.ResponseWriter, v any) {
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	body, err := AppendJSON((*bp)[:0], v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	*bp = body
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// PrunedError reports a generation-addressed request for a seq the store
// no longer (or never) retained, carrying the oldest seq still available
// so clients can re-anchor their walk.
type PrunedError struct {
	Seq    uint64
	Oldest uint64 // 0 when the store retains nothing
}

func (e *PrunedError) Error() string {
	if e.Oldest == 0 {
		return fmt.Sprintf("generation %d is not retained (store is empty)", e.Seq)
	}
	return fmt.Sprintf("generation %d is not retained; oldest available is %d", e.Seq, e.Oldest)
}

// NotRetainedError is the JSON body of a 404 for a generation-addressed
// request whose seq the store no longer retains. OldestGeneration lets the
// client re-anchor: it names the earliest seq still answerable (absent
// when the store retains nothing at all).
type NotRetainedError struct {
	Error            string `json:"error"`
	OldestGeneration uint64 `json:"oldest_generation,omitempty"`
}

// writeAtError maps a Resolver.At failure onto the wire: a pruned seq is
// the client's 404 (with the oldest retained seq to re-anchor on);
// anything else is a server-side 500.
func writeAtError(w http.ResponseWriter, err error) {
	var perr *PrunedError
	if errors.As(err, &perr) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(NotRetainedError{Error: perr.Error(), OldestGeneration: perr.Oldest})
		return
	}
	WriteError(w, http.StatusInternalServerError, "loading generation: "+err.Error())
}

// WriteError answers with the service's JSON error body convention.
func WriteError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(ErrorResponse{Error: msg})
}

package cluster

import (
	"fmt"
	"net/http"
	"net/netip"
	"strconv"
	"sync/atomic"
	"time"

	"cellspot/internal/cellmap"
	"cellspot/internal/netaddr"
	"cellspot/internal/obs"
	"cellspot/internal/obs/httpmw"
)

// HealthResponse is the body of GET /v1/cluster/health on a shard node:
// the facts the gateway's health checker routes on.
type HealthResponse struct {
	Shard      int    `json:"shard"`
	Shards     int    `json:"shards"`
	Generation uint64 `json:"generation"`
	// Entries counts the served entries this shard owns (an entry is owned
	// when any unit block it covers hashes to the shard).
	Entries int `json:"entries"`
	// TotalEntries counts the full resident map, for comparison.
	TotalEntries int    `json:"total_entries"`
	Period       string `json:"period,omitempty"`
}

// ShardView is one node's partition-filtered view over a map source. The
// full map stays resident (it is already loaded from the snapshot store,
// and aggregated prefixes may straddle shard boundaries at block
// granularity), but the request path only answers addresses the ring
// assigns to this shard; anything else is a 421 naming the owner, so a
// misconfigured client or stale gateway fails loudly instead of silently
// double-serving the keyspace.
type ShardView struct {
	src  cellmap.Source
	ring *Ring
	id   int

	// owned caches the owned-entry count per map pointer: the count walk
	// expands every prefix once, so health checks must not repeat it.
	owned atomic.Pointer[ownedCount]

	// maxInflight bounds concurrently served lookup/batch requests; beyond
	// it the node sheds with 503 + Retry-After instead of queueing into
	// collapse. 0 means unbounded. Health and info stay exempt so the
	// gateway's view of a shedding node remains accurate.
	maxInflight int64
	inflight    atomic.Int64

	mMisrouted *obs.Counter
	mOwned     *obs.Gauge
	mShed      *obs.Counter
}

type ownedCount struct {
	m *cellmap.Map
	n int
}

// NewShardView wraps src as shard id of the ring's partitioning.
func NewShardView(src cellmap.Source, ring *Ring, id int) (*ShardView, error) {
	if id < 0 || id >= ring.Shards() {
		return nil, fmt.Errorf("cluster: shard id %d out of range [0,%d)", id, ring.Shards())
	}
	return &ShardView{src: src, ring: ring, id: id}, nil
}

// SetMaxInflight bounds concurrent lookup/batch requests (0 = unbounded).
// Call before mounting; the limit is read without synchronization.
func (v *ShardView) SetMaxInflight(n int) {
	if n < 0 {
		n = 0
	}
	v.maxInflight = int64(n)
}

// EnableMetrics registers the shard-side cluster metrics:
//
//	cluster_misrouted_total  counter: requests for addresses this shard
//	                         does not own (each one is a routing bug)
//	cluster_owned_entries    gauge: owned entries in the served map
func (v *ShardView) EnableMetrics(reg *obs.Registry) {
	v.mMisrouted = reg.Counter("cluster_misrouted_total",
		"Requests for addresses outside this shard's partition.")
	v.mOwned = reg.Gauge("cluster_owned_entries",
		"Entries of the served map owned by this shard.")
	v.mShed = reg.Counter("cluster_shed_total",
		"Requests refused by admission control (in-flight bound).")
	m, _ := v.src.Current()
	v.mOwned.Set(int64(v.ownedEntries(m)))
}

// ownedEntries counts entries the shard owns in m, caching per map
// pointer so a hot-swap recomputes exactly once.
func (v *ShardView) ownedEntries(m *cellmap.Map) int {
	if c := v.owned.Load(); c != nil && c.m == m {
		return c.n
	}
	n := 0
	for _, e := range m.Entries() {
		blocks, ok := netaddr.ExpandPrefix(e.Prefix)
		if !ok {
			// Wider than the expansion bound; attribute by base block.
			if v.ring.OwnerBlock(netaddr.BlockFromAddr(e.Prefix.Addr())) == v.id {
				n++
			}
			continue
		}
		for _, b := range blocks {
			if v.ring.OwnerBlock(b) == v.id {
				n++
				break
			}
		}
	}
	v.owned.Store(&ownedCount{m: m, n: n})
	v.mOwned.Set(int64(n))
	return n
}

// MountShard registers the partition-filtered lookup service on r —
// cellmap.Mount gated by v, without history — plus v's health route.
// Addresses outside the partition get 421; lookup and batch run behind
// v's degradation guards (see Guard).
func MountShard(r httpmw.Router, v *ShardView) {
	cellmap.Mount(r, v.src, nil, v)
	v.MountHealth(r)
}

// MountHealth registers GET /v1/cluster/health: shard id, generation and
// owned entry count, the facts the gateway's health checker routes on.
// It stays outside the degradation guards so the gateway's view of a
// shedding node remains accurate.
func (v *ShardView) MountHealth(r httpmw.Router) {
	r.HandleFunc("GET /v1/cluster/health", func(w http.ResponseWriter, _ *http.Request) {
		m, gen := v.src.Current()
		cellmap.WriteJSON(w, HealthResponse{
			Shard:        v.id,
			Shards:       v.ring.Shards(),
			Generation:   gen,
			Entries:      v.ownedEntries(m),
			TotalEntries: m.Len(),
			Period:       m.Period,
		})
	})
}

// Misrouted returns nil when this shard owns addr; otherwise it counts the
// misroute and returns the error naming the owner that cellmap.Mount
// answers with 421.
func (v *ShardView) Misrouted(addr netip.Addr) error {
	owner := v.ring.Owner(addr)
	if owner == v.id {
		return nil
	}
	v.mMisrouted.Inc()
	return fmt.Errorf("address %s belongs to shard %d, this is shard %d", addr, owner, v.id)
}

// Guard wraps a serving handler with the shard's degradation policy:
// deadline enforcement first (free) — a request whose propagated gateway
// deadline (see DeadlineHeader) already passed gets 504 without touching
// the map, since its caller stopped listening — then admission control
// (SetMaxInflight; excess requests get 503 + Retry-After instead of
// queueing).
func (v *ShardView) Guard(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if h := req.Header.Get(DeadlineHeader); h != "" {
			if micros, err := strconv.ParseInt(h, 10, 64); err == nil {
				if !time.Now().Before(time.UnixMicro(micros)) {
					cellmap.WriteError(w, http.StatusGatewayTimeout,
						"request deadline expired before processing")
					return
				}
			}
		}
		if v.maxInflight > 0 {
			if v.inflight.Add(1) > v.maxInflight {
				v.inflight.Add(-1)
				v.mShed.Inc()
				w.Header().Set("Retry-After", "1")
				cellmap.WriteError(w, http.StatusServiceUnavailable,
					"shard at capacity, retry")
				return
			}
			defer v.inflight.Add(-1)
		}
		next(w, req)
	}
}

package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cellspot/internal/obs"
)

// replica is the gateway's live view of one shard replica. All fields
// besides the immutable identity are atomics: the health loop, the
// request path, and the status endpoint read and write them concurrently.
type replica struct {
	shard int
	index int
	url   string // base URL, no trailing slash

	up  atomic.Bool
	gen atomic.Uint64
	br  *breaker

	mUp  *obs.Gauge
	mGen *obs.Gauge
}

// ReplicaStatus is one replica's row in the gateway health response.
type ReplicaStatus struct {
	Shard      int    `json:"shard"`
	Replica    int    `json:"replica"`
	URL        string `json:"url"`
	Up         bool   `json:"up"`
	Generation uint64 `json:"generation"`
	// Breaker is the replica's circuit-breaker state: "closed",
	// "half-open", or "open".
	Breaker string `json:"breaker"`
}

// GatewayHealth is the body of GET /v1/cluster/health on a gateway: the
// fleet as the gateway currently sees it.
type GatewayHealth struct {
	Shards           int             `json:"shards"`
	QuorumGeneration uint64          `json:"quorum_generation"`
	Replicas         []ReplicaStatus `json:"replicas"`
}

// checkReplica probes one replica's health endpoint and folds the answer
// into the gateway's view. A probe cut short because ctx ended (the health
// loop stopping) says nothing about the replica and leaves its view as is.
func (g *Gateway) checkReplica(ctx context.Context, rep *replica) {
	probe, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	down := func() {
		if ctx.Err() == nil {
			g.markDown(rep)
		}
	}
	req, err := http.NewRequestWithContext(probe, http.MethodGet, rep.url+"/v1/cluster/health", nil)
	if err != nil {
		down()
		return
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		down()
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		down()
		return
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		down()
		return
	}
	if h.Shard != rep.shard || h.Shards != g.ring.Shards() {
		// The node answering here serves a different partition than the
		// topology claims — treat as down and say why once.
		if rep.up.Swap(false) {
			g.logf("replica %s: topology mismatch: reports shard %d/%d, expected %d/%d",
				rep.url, h.Shard, h.Shards, rep.shard, g.ring.Shards())
		}
		rep.mUp.Set(0)
		return
	}
	rep.gen.Store(h.Generation)
	rep.mGen.Set(int64(h.Generation))
	// A probe is often the first place a rolling swap becomes visible;
	// fold it into the cache so stale entries die before the next lookup.
	g.cache.observe(h.Generation)
	if !rep.up.Swap(true) {
		g.logf("replica %s (shard %d) up at generation %d", rep.url, rep.shard, h.Generation)
	}
	rep.mUp.Set(1)
}

func (g *Gateway) markDown(rep *replica) {
	if rep.up.Swap(false) {
		g.logf("replica %s (shard %d) down", rep.url, rep.shard)
	}
	rep.mUp.Set(0)
}

// CheckNow sweeps every replica once, concurrently. Run calls it on every
// tick; callers may use it to warm the view before taking traffic.
func (g *Gateway) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, shard := range g.replicas {
		for _, rep := range shard {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				g.checkReplica(ctx, rep)
			}(rep)
		}
	}
	wg.Wait()
}

// Run drives the health loop until ctx is done.
func (g *Gateway) Run(ctx context.Context) {
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	g.CheckNow(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.CheckNow(ctx)
		}
	}
}

// quorumGen returns the fleet's quorum generation: the highest generation
// that a majority of up replicas have reached. Replicas below it are
// laggards — deprioritized, not excluded, since a stale answer at a
// uniform generation still beats no answer.
func (g *Gateway) quorumGen() uint64 {
	gens := make([]uint64, 0, 8)
	for _, shard := range g.replicas {
		for _, rep := range shard {
			if rep.up.Load() {
				gens = append(gens, rep.gen.Load())
			}
		}
	}
	if len(gens) == 0 {
		return 0
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	return gens[len(gens)/2]
}

// Health snapshots the gateway's view of the fleet.
func (g *Gateway) Health() GatewayHealth {
	h := GatewayHealth{Shards: g.ring.Shards(), QuorumGeneration: g.quorumGen()}
	for _, shard := range g.replicas {
		for _, rep := range shard {
			h.Replicas = append(h.Replicas, ReplicaStatus{
				Shard:      rep.shard,
				Replica:    rep.index,
				URL:        rep.url,
				Up:         rep.up.Load(),
				Generation: rep.gen.Load(),
				Breaker:    rep.br.stateName(),
			})
		}
	}
	return h
}

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

package cluster

import (
	"fmt"
	"net/http"
	"net/netip"
	"strconv"

	"cellspot/internal/cellmap"
	"cellspot/internal/history"
)

// checkOwned answers the 421 itself (and counts the misroute) when addr is
// outside this shard's partition.
func (v *ShardView) checkOwned(w http.ResponseWriter, addr netip.Addr) bool {
	owner := v.ring.Owner(addr)
	if owner == v.id {
		return true
	}
	v.mMisrouted.Inc()
	cellmap.WriteError(w, http.StatusMisdirectedRequest,
		fmt.Sprintf("address %s belongs to shard %d, this is shard %d", addr, owner, v.id))
	return false
}

// MountShardHistory registers the partition-filtered lookup service with
// time travel — the shard-node counterpart of history.Mount, used INSTEAD
// of MountShard on nodes that run a history index over their snapshot
// store:
//
//	GET  /v1/lookup?ip=ADDR        — owned addresses, current map
//	GET  /v1/lookup?ip=ADDR&gen=N  — owned addresses, pinned generation
//	POST /v1/lookup/batch          — current generation only (gen → 400)
//	GET  /v1/history?ip=ADDR       — owned addresses, label timeline
//	GET  /v1/generations           — retained generations with metadata
//	GET  /v1/cluster/health        — shard id, generation, owned entries
//	GET  /v1/info                  — dataset metadata
//
// Ownership is checked before any generation is loaded, so a misrouted
// history request cannot pin a generation on the wrong shard. The gen=N
// answer goes through the same LookupAddr/WriteJSON path as the current
// one — byte-identical to serving that generation as current. Lookup,
// batch and history run behind the same degradation guards as MountShard's
// (admission control and deadline enforcement).
func MountShardHistory(r cellmap.Router, v *ShardView, ix *history.Index) {
	r.HandleFunc("GET /v1/lookup", v.guard(func(w http.ResponseWriter, req *http.Request) {
		addr, name, ok := cellmap.ParseLookupAddr(w, req)
		if !ok {
			return
		}
		if !v.checkOwned(w, addr) {
			return
		}
		query := req.URL.Query()
		if !query.Has("gen") {
			m, gen := v.src.Current()
			cellmap.WriteJSON(w, cellmap.LookupAddr(m, gen, addr, name))
			return
		}
		seq, err := strconv.ParseUint(query.Get("gen"), 10, 64)
		if err != nil || seq == 0 {
			cellmap.WriteError(w, http.StatusBadRequest, "bad gen: want a positive generation number")
			return
		}
		m, err := ix.At(seq)
		if err != nil {
			history.WriteAtError(w, err)
			return
		}
		cellmap.WriteJSON(w, cellmap.LookupAddr(m, seq, addr, name))
	}))
	r.HandleFunc("POST /v1/lookup/batch", v.guard(func(w http.ResponseWriter, req *http.Request) {
		addrs, names, ok := cellmap.DecodeBatch(w, req, cellmap.DefaultBatchLimit)
		if !ok {
			return
		}
		for _, a := range addrs {
			if !v.checkOwned(w, a) {
				return
			}
		}
		m, gen := v.src.Current()
		resp := cellmap.BatchResponse{Generation: gen, Results: make([]cellmap.LookupResponse, 0, len(addrs))}
		for i, a := range addrs {
			resp.Results = append(resp.Results, cellmap.LookupAddr(m, gen, a, names[i]))
		}
		cellmap.WriteJSON(w, resp)
	}))
	r.HandleFunc("GET /v1/history", v.guard(func(w http.ResponseWriter, req *http.Request) {
		addr, name, ok := cellmap.ParseLookupAddr(w, req)
		if !ok {
			return
		}
		if !v.checkOwned(w, addr) {
			return
		}
		resp, err := ix.Timeline(addr, name)
		if err != nil {
			cellmap.WriteError(w, http.StatusInternalServerError, "history walk: "+err.Error())
			return
		}
		cellmap.WriteJSON(w, resp)
	}))
	r.HandleFunc("GET /v1/generations", func(w http.ResponseWriter, _ *http.Request) {
		cellmap.WriteJSON(w, struct {
			Generations []history.GenInfo `json:"generations"`
		}{Generations: ix.Generations()})
	})
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
	cellmap.MountInfo(r, v.src)
}

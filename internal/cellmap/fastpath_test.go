package cellmap_test

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"reflect"
	"testing"

	"cellspot/internal/aschar"
	"cellspot/internal/beacon"
	"cellspot/internal/cellmap"
	"cellspot/internal/mapbuild"
	"cellspot/internal/pipeline"
)

// TestServingAnswersTakeFastPath: every answer LookupAddr gives from a
// mapbuild-built map, and every batch of them, encodes to json.Marshal's
// bytes, which the canonical parsers take back to the same value with no
// fallback to encoding/json, and so does every batch request the gateway
// encodes for those addresses. An encoder that drifted from the canonical form would
// pass the differential fuzz targets yet lose the fast path; this catches
// it.
func TestServingAnswersTakeFastPath(t *testing.T) {
	var hitsRAT, hitsNoRAT, misses, v4, v6 int
	for seed := uint64(1); seed <= 2; seed++ {
		cfg := pipeline.DefaultConfig()
		cfg.World.Scale = 0.002
		cfg.World.Seed = seed
		r, err := pipeline.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in := mapbuild.Inputs{
			Demand:    r.Demand,
			Rules:     aschar.DefaultRules(r.World.Snapshot),
			ASOf:      r.ASOf,
			CountryOf: r.CountryOf,
		}
		// The same counts without the per-RAT split: a map as built from
		// logs that predate the RAT column.
		legacy := beacon.NewAggregate()
		for i := range r.Beacon.Blocks() {
			b, c := r.Beacon.At(i)
			legacy.Add(b, c.Hits, c.API, c.Cell)
		}
		var addrs []netip.Addr
		for i, bi := range r.World.Blocks {
			addrs = append(addrs, bi.Block.HostAddr(uint64(i)*7919))
		}
		for _, agg := range []*beacon.Aggregate{r.Beacon, legacy} {
			m, err := mapbuild.Build(agg, cfg.Threshold, "2016-12", in)
			if err != nil {
				t.Fatal(err)
			}
			for _, gen := range []uint64{0, seed + 4} {
				batch := cellmap.BatchResponse{Generation: gen}
				for i, a := range addrs {
					lr := cellmap.LookupAddr(m, gen, a, a.String())
					switch {
					case !lr.Cellular:
						misses++
					case lr.RAT != nil:
						hitsRAT++
					default:
						hitsNoRAT++
					}
					if a.Is4() {
						v4++
					} else {
						v6++
					}
					enc, ok := cellmap.AppendLookupResponse(nil, lr)
					if want, _ := json.Marshal(lr); !ok || !bytes.Equal(enc, want) {
						t.Fatalf("AppendLookupResponse(%+v):\n got %s (ok %v)\nwant %s", lr, enc, ok, want)
					}
					got, rest, ok := cellmap.ParseLookupResponse(enc)
					if !ok || len(rest) != 0 || !reflect.DeepEqual(got, lr) {
						t.Fatalf("answer %s does not take the fast path back to %+v (got %+v, ok %v)", enc, lr, got, ok)
					}
					batch.Results = append(batch.Results, lr)
					if len(batch.Results) == 64 || i == len(addrs)-1 {
						checkBatch(t, batch, addrs[i+1-len(batch.Results):i+1])
						batch.Results = nil
					}
				}
			}
		}
	}
	if hitsRAT == 0 || hitsNoRAT == 0 || misses == 0 || v4 == 0 || v6 == 0 {
		t.Fatalf("vacuous probe set: %d hits with RAT, %d without, %d misses, %d v4, %d v6",
			hitsRAT, hitsNoRAT, misses, v4, v6)
	}
	t.Logf("%d hits with RAT, %d without, %d misses, %d v4, %d v6", hitsRAT, hitsNoRAT, misses, v4, v6)
}

// checkBatch requires the batch answer and the request for addrs to
// encode to json.Marshal's bytes and to take the fast path back.
func checkBatch(t *testing.T, br cellmap.BatchResponse, addrs []netip.Addr) {
	t.Helper()
	enc, ok := cellmap.AppendBatchResponse(nil, br)
	if want, _ := json.Marshal(br); !ok || !bytes.Equal(enc, want) {
		t.Fatalf("AppendBatchResponse:\n got %s (ok %v)\nwant %s", enc, ok, want)
	}
	got, ok := cellmap.ParseBatchResponse(append(enc, '\n'))
	if !ok || !reflect.DeepEqual(got, br) {
		t.Fatalf("batch answer %s does not take the fast path", enc)
	}
	ips := make([]string, len(addrs))
	for i, a := range addrs {
		ips[i] = a.String()
	}
	req := cellmap.AppendBatchRequest(nil, addrs)
	if want, _ := json.Marshal(cellmap.BatchRequest{IPs: ips}); !bytes.Equal(req, want) {
		t.Fatalf("AppendBatchRequest:\n got %s\nwant %s", req, want)
	}
	if got, ok := cellmap.ParseBatchRequest(req); !ok || !reflect.DeepEqual(got, ips) {
		t.Fatalf("batch request %s does not take the fast path", req)
	}
}

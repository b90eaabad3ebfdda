package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"cellspot/internal/cellmap"
)

// BenchmarkGatewayBatch measures scatter-gather batch lookup throughput
// through the full HTTP path: gateway fan-out to a 3-shard × 2-replica
// in-process fleet and merge, 128 addresses per batch. Reported addrs/s
// is the end-to-end lookup rate one gateway sustains serially; concurrent
// clients scale it until the fleet saturates.
//
// The miss variant sends addresses the response cache has not seen, so
// every batch fans out to the shards; cache is the steady state with the
// cache warm, where repeat batches never leave the gateway.
func BenchmarkGatewayBatch(b *testing.B) {
	b.Run("miss", func(b *testing.B) { benchGatewayBatch(b, true) })
	b.Run("cache", func(b *testing.B) { benchGatewayBatch(b, false) })
}

func benchGatewayBatch(b *testing.B, miss bool) {
	m := mkMap(b, "2016-12", genTwoEntries())
	f := newTestFleet(b, 3, 2, m, 1)
	g, srv, _ := f.gateway(b, func(c *GatewayConfig) {
		c.CacheSize = 1024
	})
	g.CheckNow(context.Background())

	// Batch n carries addresses numbered n*batchSize onward, the low byte
	// of each number picking its /24, so one batch spans 128 blocks and
	// every shard. Without miss every request repeats batch 0.
	const batchSize = 128
	payload := func(n int) []byte {
		ips := make([]string, batchSize)
		for i := range ips {
			k := n*batchSize + i
			ips[i] = fmt.Sprintf("10.%d.%d.%d", k>>16&0xff, k&0xff, k>>8&0xff)
		}
		p, err := json.Marshal(cellmap.BatchRequest{IPs: ips})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	payloads := [][]byte{payload(0)}
	if miss {
		for n := 1; n <= b.N; n++ {
			payloads = append(payloads, payload(n))
		}
	}
	client := &http.Client{Timeout: 10 * time.Second}

	do := func(p []byte) {
		resp, err := client.Post(srv.URL+"/v1/lookup/batch", "application/json", bytes.NewReader(p))
		if err != nil {
			b.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	do(payloads[0]) // warm the cache (and the connections) outside the timed region

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(payloads[(i+1)%len(payloads)])
	}
	b.StopTimer()
	b.ReportMetric(float64(batchSize*b.N)/b.Elapsed().Seconds(), "addrs/s")
}

package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"

	"cellspot/internal/cellmap"
	"cellspot/internal/obs"
	"cellspot/internal/obs/httpmw"
)

// tmEntry is one entry of a hand-built test map.
type tmEntry struct {
	prefix  string
	asn     uint32
	ratio   float64
	du      float64
	country string
}

// mkMap assembles a cellmap from explicit entries via the wire format, so
// tests control exactly which prefixes exist at which generation.
func mkMap(t testing.TB, period string, entries []tmEntry) *cellmap.Map {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, `{"format":"cellspot-map/1","threshold":0.5,"period":%q,"entries":%d}`+"\n",
		period, len(entries))
	for _, e := range entries {
		fmt.Fprintf(&b, `{"prefix":%q,"asn":%d,"ratio":%g,"du":%g,"country":%q}`+"\n",
			e.prefix, e.asn, e.ratio, e.du, e.country)
	}
	m, err := cellmap.Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("mkMap: %v", err)
	}
	return m
}

// genOneEntries is the generation-1 dataset: 16 v4 unit blocks and 4 v6
// unit blocks, each with metadata that differs per prefix so a wrong
// answer is distinguishable from a right one.
func genOneEntries() []tmEntry {
	var es []tmEntry
	for i := 0; i < 16; i++ {
		es = append(es, tmEntry{
			prefix: fmt.Sprintf("10.0.%d.0/24", i), asn: uint32(100 + i),
			ratio: 0.25 + float64(i)/100, du: float64(i + 1), country: "DE",
		})
	}
	for i := 0; i < 4; i++ {
		es = append(es, tmEntry{
			prefix: fmt.Sprintf("2001:db8:%d::/48", i), asn: uint32(200 + i),
			ratio: 0.5, du: float64(i), country: "SE",
		})
	}
	return es
}

// genTwoEntries evolves generation 1: every ratio changes and 8 new
// prefixes appear, so answers from the two generations are tellable apart
// for every address.
func genTwoEntries() []tmEntry {
	es := genOneEntries()
	for i := range es {
		es[i].ratio += 0.4
	}
	for i := 0; i < 8; i++ {
		es = append(es, tmEntry{
			prefix: fmt.Sprintf("10.1.%d.0/24", i), asn: uint32(300 + i),
			ratio: 0.9, du: 42, country: "US",
		})
	}
	return es
}

// testFleet is an in-process shard fleet: shards × replicas httptest
// servers, each serving its own Swappable behind a ShardView.
type testFleet struct {
	topo Topology
	ring *Ring
	sws  [][]*cellmap.Swappable
	srvs [][]*httptest.Server
}

func newTestFleet(t testing.TB, shards, reps int, m *cellmap.Map, gen uint64) *testFleet {
	t.Helper()
	f := &testFleet{ring: NewRing(shards, DefaultVNodes)}
	f.topo = Topology{Format: TopologyFormat}
	for s := 0; s < shards; s++ {
		var (
			sws  []*cellmap.Swappable
			srvs []*httptest.Server
			urls []string
		)
		for j := 0; j < reps; j++ {
			sw := cellmap.NewSwappable(m, gen)
			view, err := NewShardView(sw, f.ring, s)
			if err != nil {
				t.Fatal(err)
			}
			mux := http.NewServeMux()
			MountShard(mux, view)
			srv := httptest.NewServer(mux)
			t.Cleanup(srv.Close)
			sws = append(sws, sw)
			srvs = append(srvs, srv)
			urls = append(urls, srv.URL)
		}
		f.sws = append(f.sws, sws)
		f.srvs = append(f.srvs, srvs)
		f.topo.Shards = append(f.topo.Shards, ShardSpec{Replicas: urls})
	}
	return f
}

// swap hot-swaps one replica to a new map generation.
func (f *testFleet) swap(s, j int, m *cellmap.Map, gen uint64) { f.sws[s][j].Swap(m, gen) }

// kill closes one replica's server, severing in-flight connections too.
func (f *testFleet) kill(s, j int) {
	f.srvs[s][j].CloseClientConnections()
	f.srvs[s][j].Close()
}

// gateway builds a gateway over the fleet plus an instrumented HTTP
// front, returning the gateway, its server, and the metrics registry.
func (f *testFleet) gateway(t testing.TB, tune func(*GatewayConfig)) (*Gateway, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := GatewayConfig{Topology: f.topo, Registry: reg, Logf: t.Logf}
	if tune != nil {
		tune(&cfg)
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := httpmw.NewMux(reg)
	g.Mount(mux)
	mux.Handle("GET /metrics", reg.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return g, srv, reg
}

// coveredAddrs returns one representative host address inside every v4
// and v6 prefix of the generation-1/2 datasets, plus a few misses.
func coveredAddrs() []netip.Addr {
	var out []netip.Addr
	for i := 0; i < 16; i++ {
		out = append(out, netip.MustParseAddr(fmt.Sprintf("10.0.%d.9", i)))
	}
	for i := 0; i < 8; i++ {
		out = append(out, netip.MustParseAddr(fmt.Sprintf("10.1.%d.9", i)))
	}
	for i := 0; i < 4; i++ {
		out = append(out, netip.MustParseAddr(fmt.Sprintf("2001:db8:%d::77", i)))
	}
	out = append(out,
		netip.MustParseAddr("192.0.2.1"),
		netip.MustParseAddr("198.51.100.200"),
		netip.MustParseAddr("2001:db9::1"),
	)
	return out
}

// freshAddrs returns coveredAddrs with k added to every address's last
// byte: the same prefixes and shard owners, but addresses a gateway cache
// that has only seen coveredAddrs (or other k) has not seen.
func freshAddrs(k int) []netip.Addr {
	var out []netip.Addr
	for _, a := range coveredAddrs() {
		b := a.As16()
		b[15] += byte(k)
		out = append(out, netip.AddrFrom16(b).Unmap())
	}
	return out
}

// addrOwnedBy finds a covered address the ring assigns to shard s.
func addrOwnedBy(t testing.TB, ring *Ring, s int) netip.Addr {
	t.Helper()
	for _, a := range coveredAddrs() {
		if ring.Owner(a) == s {
			return a
		}
	}
	t.Fatalf("no covered address owned by shard %d", s)
	return netip.Addr{}
}

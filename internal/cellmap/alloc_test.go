package cellmap

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
)

// allocTestMap builds a map with enough entries that the index takes
// non-trivial shapes (nesting comes from Read, which accepts any disjoint
// set; Build's aggregation output is disjoint by construction).
func allocTestMap(t testing.TB) *Map {
	t.Helper()
	var b strings.Builder
	const n = 512
	fmt.Fprintf(&b, `{"format":"cellspot-map/1","threshold":0.5,"period":"2016-12","entries":%d}`+"\n", n+4)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"prefix":"10.%d.%d.0/24","asn":%d,"ratio":0.5,"du":%d,"country":"DE"}`+"\n",
			i/200, i%256, 100+i, i)
	}
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&b, `{"prefix":"2001:db8:%d::/48","asn":%d,"ratio":0.75,"du":7,"country":"SE"}`+"\n",
			i, 900+i)
	}
	m, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestZeroAllocServingPath is the allocation regression gate for the
// single-node request path: Map.Lookup, LookupAddr and encoding the
// answer into a buffer with room for it must all run without allocating,
// on hits and misses, v4 and v6. CI runs this test by name so a
// regression fails the build.
func TestZeroAllocServingPath(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	m := allocTestMap(t)
	probes := []struct {
		name string
		addr netip.Addr
	}{
		{"v4-hit", netip.MustParseAddr("10.0.7.99")},
		{"v4-miss", netip.MustParseAddr("192.0.2.1")},
		{"v6-hit", netip.MustParseAddr("2001:db8:2::1")},
		{"v6-miss", netip.MustParseAddr("2001:db9::1")},
	}
	for _, p := range probes {
		p := p
		t.Run("Lookup/"+p.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(1000, func() {
				m.Lookup(p.addr)
			}); n != 0 {
				t.Errorf("Map.Lookup(%s) allocates %.1f times per op, want 0", p.addr, n)
			}
		})
		t.Run("LookupAddr/"+p.name, func(t *testing.T) {
			name := p.addr.String()
			if n := testing.AllocsPerRun(1000, func() {
				LookupAddr(m, 3, p.addr, name)
			}); n != 0 {
				t.Errorf("LookupAddr(%s) allocates %.1f times per op, want 0", p.addr, n)
			}
		})
		t.Run("AppendLookupResponse/"+p.name, func(t *testing.T) {
			resp := LookupAddr(m, 3, p.addr, p.addr.String())
			buf := make([]byte, 0, 256)
			if n := testing.AllocsPerRun(1000, func() {
				buf, _ = AppendLookupResponse(buf[:0], resp)
			}); n != 0 {
				t.Errorf("AppendLookupResponse(%s) allocates %.1f times per op, want 0", p.addr, n)
			}
		})
	}
}

// TestLookupAddrEcho pins the echo contract: the answer carries the name
// the caller supplied (the client's own spelling), and hits carry the
// cached prefix string identical to Prefix.String().
func TestLookupAddrEcho(t *testing.T) {
	m := allocTestMap(t)
	addr := netip.MustParseAddr("10.0.7.99")
	resp := LookupAddr(m, 3, addr, "10.0.7.99")
	if resp.Addr != "10.0.7.99" || !resp.Cellular || resp.Generation != 3 {
		t.Fatalf("unexpected response %+v", resp)
	}
	e, ok := m.Lookup(addr)
	if !ok || resp.Prefix != e.Prefix.String() {
		t.Fatalf("cached prefix string %q != %q", resp.Prefix, e.Prefix.String())
	}
	miss := LookupAddr(m, 3, netip.MustParseAddr("192.0.2.1"), "192.0.2.1")
	if miss.Cellular || miss.Prefix != "" || miss.Addr != "192.0.2.1" {
		t.Fatalf("unexpected miss response %+v", miss)
	}
}

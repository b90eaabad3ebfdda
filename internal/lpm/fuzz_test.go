package lpm

import (
	"encoding/binary"
	"net/netip"
	"testing"
)

// FuzzLookup decodes arbitrary bytes into a prefix set plus probe
// addresses and checks flat-vs-trie agreement on every probe. The decoder
// is deliberately forgiving — any input yields some set — so the fuzzer
// explores layouts (nesting, adjacency, host bits, tiny and empty sets)
// rather than fighting a parser.
//
// Wire format, repeated records until input runs out:
//
//	tag byte: low bit selects family; remaining bits mod 33/129 give the
//	prefix length. Followed by 4 (v4) or 16 (v6) address bytes.
//
// The final up-to-17 bytes that cannot form a record become probe seeds;
// every stored prefix's own address doubles as a probe.
func FuzzLookup(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x10, 10, 0, 0, 0})                                                      // one v4 /8
	f.Add([]byte{0x40, 10, 0, 0, 0, 0x30, 10, 0, 0, 0})                                   // nested v4 /32 under /24
	f.Add([]byte{0x01, 0x20, 0xdb, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})             // one v6
	f.Add([]byte{0x02, 10, 0, 0, 1, 0x02, 10, 0, 0, 2})                                   // duplicate after mask
	f.Add([]byte{0x00, 0, 0, 0, 0, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // both default routes
	f.Add([]byte{0xff, 1, 2, 3, 4, 0xfe, 1, 2, 3, 4, 0xfd, 1, 2, 3, 0})                   // host routes + sibling
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			prefixes []netip.Prefix
			probes   []netip.Addr
		)
		for len(data) > 0 {
			tag := data[0]
			data = data[1:]
			if tag&1 == 0 { // IPv4
				if len(data) < 4 {
					probes = append(probes, probeFromTail(tag, data))
					break
				}
				var a [4]byte
				copy(a[:], data)
				data = data[4:]
				prefixes = append(prefixes, netip.PrefixFrom(netip.AddrFrom4(a), int(tag>>1)%33))
			} else { // IPv6
				if len(data) < 16 {
					probes = append(probes, probeFromTail(tag, data))
					break
				}
				var a [16]byte
				copy(a[:], data)
				data = data[16:]
				prefixes = append(prefixes, netip.PrefixFrom(netip.AddrFrom16(a), int(tag>>1)%129))
			}
		}
		for _, p := range prefixes {
			probes = append(probes, p.Addr())
			// Probe the first address past the prefix too: the classic
			// off-by-one for longest-match boundaries.
			probes = append(probes, p.Masked().Addr().Next())
		}

		o := buildPair(t, prefixes)
		if got, want := o.m.Len(), o.trie.Len(); got != want {
			t.Fatalf("Len: lpm=%d trie=%d", got, want)
		}
		for _, a := range probes {
			o.check(t, a)
		}
	})
}

// probeFromTail stretches leftover record bytes into a probe address.
func probeFromTail(tag byte, tail []byte) netip.Addr {
	var a [16]byte
	a[0] = tag
	copy(a[1:], tail)
	if tag&1 == 0 {
		// Bias into the v4-mapped block so short tails still probe the
		// space where v4 prefixes live.
		var v4 [4]byte
		copy(v4[:], a[1:5])
		return netip.AddrFrom4(v4)
	}
	return netip.AddrFrom16(a)
}

// FuzzBuildStats cross-checks structural invariants on arbitrary sets:
// every stored prefix must be reachable (looking up its own first address
// returns some value at least as specific), and the node array must be
// internally consistent — no descent can run off the arrays.
func FuzzBuildStats(f *testing.F) {
	f.Add(uint64(1), uint16(8))
	f.Add(uint64(42), uint16(300))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		if n > 2048 {
			n = 2048
		}
		// Derive a deterministic prefix set from the seed without pulling
		// in math/rand: splitmix-style mixing is plenty for shapes.
		x := seed
		next := func() uint64 {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31)
		}
		var prefixes []netip.Prefix
		for i := 0; i < int(n); i++ {
			v := next()
			if v&1 == 0 {
				var a [4]byte
				binary.BigEndian.PutUint32(a[:], uint32(v>>8))
				prefixes = append(prefixes, netip.PrefixFrom(netip.AddrFrom4(a), int(v>>40)%33))
			} else {
				var a [16]byte
				binary.BigEndian.PutUint64(a[:8], next())
				binary.BigEndian.PutUint64(a[8:], next())
				prefixes = append(prefixes, netip.PrefixFrom(netip.AddrFrom16(a), int(v>>40)%129))
			}
		}
		o := buildPair(t, prefixes)
		st := o.m.Stats()
		if st.Base+st.Chain != st.Prefixes {
			t.Fatalf("partition broken: base %d + chain %d != prefixes %d", st.Base, st.Chain, st.Prefixes)
		}
		for _, p := range prefixes {
			mp := p.Masked()
			if _, ok := o.m.Lookup(mp.Addr()); !ok {
				t.Fatalf("stored prefix %s not reachable from its own address", mp)
			}
			o.check(t, mp.Addr())
		}
	})
}

package lpm

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"testing"
)

// benchSet builds a serving-shaped prefix set: mostly v4 /24s and v6
// /48s (the map's unit blocks) plus a sprinkling of coarser aggregates,
// all from a seeded PCG so runs are comparable.
func benchSet(n int) ([]netip.Prefix, []netip.Addr) {
	rng := rand.New(rand.NewPCG(2016, 12))
	seen := map[netip.Prefix]bool{}
	var prefixes []netip.Prefix
	for len(prefixes) < n {
		var p netip.Prefix
		switch rng.IntN(10) {
		case 0: // coarse v4 aggregate
			p = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(rng.Uint32()), byte(rng.Uint32()), 0, 0}), 12+rng.IntN(9))
		case 1, 2: // v6 /48
			var a [16]byte
			a[0], a[1] = 0x20, 0x01
			for i := 2; i < 6; i++ {
				a[i] = byte(rng.Uint32())
			}
			p = netip.PrefixFrom(netip.AddrFrom16(a), 48)
		default: // v4 /24
			p = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), 0}), 24)
		}
		p = p.Masked()
		if seen[p] {
			continue
		}
		seen[p] = true
		prefixes = append(prefixes, p)
	}
	// Probe mix: ~3/4 inside stored space, 1/4 random (mostly misses).
	probes := make([]netip.Addr, 4096)
	for i := range probes {
		if i%4 == 0 {
			probes[i] = netip.AddrFrom4([4]byte{byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32())})
			continue
		}
		probes[i] = probeFor(rng, prefixes)
	}
	return prefixes, probes
}

// BenchmarkLPMLookup is the headline single-node number: longest-prefix
// matches per second against the flat matcher, over set sizes spanning
// toy to paper scale. Compare BenchmarkTrieLookup for the structure it
// replaced. CI runs the 100k size; BENCH_lookup.json records the rest.
func BenchmarkLPMLookup(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			prefixes, probes := benchSet(n)
			entries := make([]Entry, len(prefixes))
			for i, p := range prefixes {
				entries[i] = Entry{Prefix: p, Value: int32(i)}
			}
			m, err := Build(entries)
			if err != nil {
				b.Fatal(err)
			}
			st := m.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Lookup(probes[i&(len(probes)-1)])
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
			b.ReportMetric(float64(st.Bytes)/float64(n), "bytes/prefix")
		})
	}
}

// BenchmarkTrieLookup measures the pointer-chasing radix trie the flat
// matcher replaced, on the same set and probe stream.
func BenchmarkTrieLookup(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			prefixes, probes := benchSet(n)
			var trie radixTrie
			for i, p := range prefixes {
				if err := trie.Insert(p, int32(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trie.Lookup(probes[i&(len(probes)-1)])
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
		})
	}
}

// BenchmarkLPMBuild prices the build-once cost a hot swap pays.
func BenchmarkLPMBuild(b *testing.B) {
	prefixes, _ := benchSet(100_000)
	entries := make([]Entry, len(prefixes))
	for i, p := range prefixes {
		entries[i] = Entry{Prefix: p, Value: int32(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(entries); err != nil {
			b.Fatal(err)
		}
	}
}

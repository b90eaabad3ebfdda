package lpm

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"testing"
)

// --- construction helpers shared by the differential and fuzz harnesses ---

// oracle pairs a Matcher with the pointer-chasing radixTrie it must
// agree with, built from the same deduplicated prefix set.
type oracle struct {
	m    *Matcher
	trie radixTrie
}

// buildPair inserts prefixes into both structures. Duplicate masked
// prefixes are deduplicated first (last value wins) because the trie
// overwrites where Build refuses.
func buildPair(t testing.TB, prefixes []netip.Prefix) *oracle {
	t.Helper()
	type slot struct {
		p   netip.Prefix
		val int32
	}
	seen := map[netip.Prefix]int{}
	var uniq []slot
	for i, p := range prefixes {
		mp := canonical(p)
		if j, ok := seen[mp]; ok {
			uniq[j].val = int32(i)
			continue
		}
		seen[mp] = len(uniq)
		uniq = append(uniq, slot{p: mp, val: int32(i)})
	}
	o := &oracle{}
	entries := make([]Entry, 0, len(uniq))
	for _, s := range uniq {
		entries = append(entries, Entry{Prefix: s.p, Value: s.val})
		if err := o.trie.Insert(s.p, s.val); err != nil {
			t.Fatalf("oracle insert %s: %v", s.p, err)
		}
	}
	m, err := Build(entries)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	o.m = m
	return o
}

// canonical masks p and collapses the v4/v4-in-6 aliasing the same way
// both structures do, so deduplication sees what they see.
func canonical(p netip.Prefix) netip.Prefix {
	return p.Masked()
}

// check compares one probe across both structures.
func (o *oracle) check(t testing.TB, addr netip.Addr) {
	t.Helper()
	want, wok := o.trie.Lookup(addr)
	got, gok := o.m.Lookup(addr)
	if wok != gok || (wok && want != got) {
		t.Fatalf("divergence at %s: trie=(%d,%v) lpm=(%d,%v)", addr, want, wok, got, gok)
	}
}

// --- random set generators (seeded PCG, deterministic per case) ---

func randV4Prefix(rng *rand.Rand) netip.Prefix {
	var b [4]byte
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return netip.PrefixFrom(netip.AddrFrom4(b), rng.IntN(33))
}

func randV6Prefix(rng *rand.Rand) netip.Prefix {
	var b [16]byte
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return netip.PrefixFrom(netip.AddrFrom16(b), rng.IntN(129))
}

// nestedChain emits a run of prefixes each extending the previous one by a
// few bits, the deep-nesting shape that exercises the ancestor chains.
func nestedChain(rng *rand.Rand, v6 bool) []netip.Prefix {
	var (
		out  []netip.Prefix
		base netip.Prefix
		max  int
	)
	if v6 {
		base, max = randV6Prefix(rng), 128
	} else {
		base, max = randV4Prefix(rng), 32
	}
	bits := base.Bits() % (max / 2) // start shallow so the chain has room
	addr := base.Addr()
	for bits <= max {
		out = append(out, netip.PrefixFrom(addr, bits))
		bits += 1 + rng.IntN(4)
	}
	return out
}

// probeFor derives a probe address correlated with the stored set: inside
// a prefix, just outside it (flip the last prefix bit), adjacent sibling,
// or fully random — misses must agree too.
func probeFor(rng *rand.Rand, prefixes []netip.Prefix) netip.Addr {
	if len(prefixes) == 0 || rng.IntN(8) == 0 {
		if rng.IntN(2) == 0 {
			return randV4Prefix(rng).Addr()
		}
		return randV6Prefix(rng).Addr()
	}
	p := prefixes[rng.IntN(len(prefixes))]
	a16 := p.Addr().As16()
	bits := p.Bits()
	if p.Addr().Is4() {
		bits += 96
	}
	// Randomize host bits.
	for i := bits; i < 128; i++ {
		if rng.IntN(2) == 1 {
			a16[i/8] ^= 1 << (7 - i%8)
		}
	}
	// Half the time, leave the prefix: flip one bit inside it.
	if bits > 0 && rng.IntN(2) == 0 {
		i := rng.IntN(bits)
		a16[i/8] ^= 1 << (7 - i%8)
	}
	addr := netip.AddrFrom16(a16)
	if p.Addr().Is4() {
		if v4 := addr.Unmap(); v4.Is4() {
			addr = v4
		}
	}
	return addr
}

// TestDifferentialRandom is the differential property harness: for each
// case, a seeded-random prefix set goes into both the flat matcher and
// the radixTrie oracle, and at least 10k probes per case must agree
// exactly — value and hit/miss alike.
func TestDifferentialRandom(t *testing.T) {
	cases := []struct {
		name     string
		prefixes int
		probes   int
		gen      func(rng *rand.Rand, n int) []netip.Prefix
	}{
		{"v4", 2000, 12000, func(rng *rand.Rand, n int) []netip.Prefix {
			ps := make([]netip.Prefix, n)
			for i := range ps {
				ps[i] = randV4Prefix(rng)
			}
			return ps
		}},
		{"v6", 2000, 12000, func(rng *rand.Rand, n int) []netip.Prefix {
			ps := make([]netip.Prefix, n)
			for i := range ps {
				ps[i] = randV6Prefix(rng)
			}
			return ps
		}},
		{"mixed", 3000, 12000, func(rng *rand.Rand, n int) []netip.Prefix {
			ps := make([]netip.Prefix, n)
			for i := range ps {
				if rng.IntN(2) == 0 {
					ps[i] = randV4Prefix(rng)
				} else {
					ps[i] = randV6Prefix(rng)
				}
			}
			return ps
		}},
		{"nested", 400, 12000, func(rng *rand.Rand, n int) []netip.Prefix {
			var ps []netip.Prefix
			for len(ps) < n {
				ps = append(ps, nestedChain(rng, rng.IntN(2) == 0)...)
			}
			return ps
		}},
		{"adjacent", 2000, 12000, func(rng *rand.Rand, n int) []netip.Prefix {
			// Sibling pairs: a prefix and the one differing only in its
			// last bit, the shape that stresses branch partitioning.
			var ps []netip.Prefix
			for len(ps) < n {
				p := randV4Prefix(rng)
				if p.Bits() == 0 {
					continue
				}
				ps = append(ps, p)
				a := p.Addr().As4()
				i := p.Bits() - 1
				a[i/8] ^= 1 << (7 - i%8)
				ps = append(ps, netip.PrefixFrom(netip.AddrFrom4(a), p.Bits()))
			}
			return ps
		}},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, 0xce11))
				prefixes := tc.gen(rng, tc.prefixes)
				o := buildPair(t, prefixes)
				for i := 0; i < tc.probes; i++ {
					o.check(t, probeFor(rng, prefixes))
				}
			})
		}
	}
}

// TestHostBitEdgeCases pins the canonicalization contract: prefixes with
// host bits set mask to the same slot in both structures, and host-route
// prefixes (/32, /128) and default routes (/0) resolve identically.
func TestHostBitEdgeCases(t *testing.T) {
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("10.1.2.3/16"), // host bits set
		netip.MustParsePrefix("10.1.0.0/16"), // its masked twin (deduped)
		netip.MustParsePrefix("10.1.2.3/32"),
		netip.MustParsePrefix("0.0.0.0/0"),
		netip.MustParsePrefix("2001:db8::42/48"), // host bits set
		netip.MustParsePrefix("2001:db8::42/128"),
		netip.MustParsePrefix("::/0"),
	}
	o := buildPair(t, prefixes)
	probes := []string{
		"10.1.2.3", "10.1.2.4", "10.1.255.255", "10.2.0.0", "192.0.2.1",
		"2001:db8::42", "2001:db8::43", "2001:db8:1::1", "2001:db9::1",
		"::", "255.255.255.255", "::ffff:10.1.2.3",
	}
	for _, s := range probes {
		o.check(t, netip.MustParseAddr(s))
	}
}

// TestEmptyAndSingle covers the degenerate layouts: nil matcher, empty
// set, one prefix, one nested pair.
func TestEmptyAndSingle(t *testing.T) {
	var nilM *Matcher
	if _, ok := nilM.Lookup(netip.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("nil matcher reported a hit")
	}
	empty, err := Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := empty.Lookup(netip.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("empty matcher reported a hit")
	}
	if empty.Len() != 0 {
		t.Fatalf("empty Len = %d", empty.Len())
	}
	o := buildPair(t, []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")})
	o.check(t, netip.MustParseAddr("10.200.1.1"))
	o.check(t, netip.MustParseAddr("11.0.0.1"))
	o = buildPair(t, []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("10.0.0.0/24"),
	})
	for _, s := range []string{"10.0.0.7", "10.0.1.7", "10.255.0.1", "11.0.0.1"} {
		o.check(t, netip.MustParseAddr(s))
	}
}

// TestDuplicateRejected pins Build's refusal to shadow values.
func TestDuplicateRejected(t *testing.T) {
	_, err := Build([]Entry{
		{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Value: 1},
		{Prefix: netip.MustParsePrefix("10.0.0.9/24"), Value: 2}, // same after Masked
	})
	if err == nil {
		t.Fatal("duplicate masked prefixes accepted")
	}
}

// TestStats sanity-checks the layout report against a known set.
func TestStats(t *testing.T) {
	o := buildPair(t, []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("10.1.0.0/16"),
		netip.MustParsePrefix("10.2.0.0/16"),
	})
	st := o.m.Stats()
	if st.Prefixes != 3 || st.Base != 2 || st.Chain != 1 || st.Nodes < 3 || st.Bytes <= 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if o.m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", o.m.Len())
	}
}

// TestZeroAllocLookup is the allocation regression gate for the core:
// lpm.Lookup must be allocation-free on hits and misses. CI runs this
// test by name so a regression fails the build.
func TestZeroAllocLookup(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	rng := rand.New(rand.NewPCG(7, 0xce11))
	var prefixes []netip.Prefix
	for i := 0; i < 4000; i++ {
		prefixes = append(prefixes, randV4Prefix(rng))
		prefixes = append(prefixes, randV6Prefix(rng))
	}
	o := buildPair(t, prefixes)
	hit := prefixes[0].Addr()
	miss := netip.MustParseAddr("203.0.113.77") // may hit; either way must not allocate
	for name, addr := range map[string]netip.Addr{"probe1": hit, "probe2": miss} {
		addr := addr
		if n := testing.AllocsPerRun(1000, func() {
			o.m.Lookup(addr)
		}); n != 0 {
			t.Errorf("%s: lpm.Lookup allocates %.1f times per op, want 0", name, n)
		}
	}
}

// Len returns the number of stored prefixes.
func (m *Matcher) Len() int {
	if m == nil {
		return 0
	}
	return len(m.base) + len(m.chain) // a prefix is a base or a chain entry
}

// Stats describes the built structure, for the tests and benchmarks that
// check its size.
type Stats struct {
	Prefixes int // stored prefixes
	Base     int // maximal prefixes (trie leaves)
	Chain    int // nested-ancestor chain entries
	Nodes    int // trie nodes (leaves + internal, incl. reserved slots)
	Bytes    int // total size of the flat arrays
}

// Stats reports the matcher's layout.
func (m *Matcher) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	return Stats{
		Prefixes: m.Len(),
		Base:     len(m.base),
		Chain:    len(m.chain),
		Nodes:    len(m.nodes) / 2,
		Bytes:    len(m.nodes)*4 + len(m.base)*24 + len(m.chain)*12,
	}
}

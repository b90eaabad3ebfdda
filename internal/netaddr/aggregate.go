package netaddr

import (
	"net/netip"
	"sort"
)

// AggregateBlocks merges a set of same-family blocks into the minimal list
// of covering CIDR prefixes: adjacent, alignment-compatible /24s (or /48s)
// collapse into shorter prefixes. The result is sorted by address.
//
// This is the step that turns a detected block set into a publishable
// prefix list (the MaxMind-style artifact the paper's method produces for
// CDN consumption).
func AggregateBlocks(blocks []Block) []netip.Prefix {
	var v4, v6 []uint64
	for _, b := range blocks {
		if b.IsV6() {
			v6 = append(v6, b.Key())
		} else {
			v4 = append(v4, b.Key())
		}
	}
	out := aggregateKeys(v4, 24, func(key uint64, bits int) netip.Prefix {
		return netip.PrefixFrom(MakeBlock(IPv4, key).Addr(), bits)
	})
	out = append(out, aggregateKeys(v6, 48, func(key uint64, bits int) netip.Prefix {
		return netip.PrefixFrom(MakeBlock(IPv6, key).Addr(), bits)
	})...)
	return out
}

// aggregateKeys merges sorted unit-prefix keys (each representing one
// maxBits-length prefix) into minimal covering prefixes.
func aggregateKeys(keys []uint64, maxBits int, mk func(uint64, int) netip.Prefix) []netip.Prefix {
	if len(keys) == 0 {
		return nil
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	// Dedup.
	uniq := keys[:1]
	for _, k := range keys[1:] {
		if k != uniq[len(uniq)-1] {
			uniq = append(uniq, k)
		}
	}
	// Greedy merge on a stack of (key, size) runs where size is a power of
	// two: two sibling runs of size s merge into one of size 2s when the
	// combined run is aligned.
	type run struct {
		key  uint64 // first unit key
		size uint64 // number of unit prefixes covered (power of two)
	}
	var stack []run
	push := func(r run) {
		stack = append(stack, r)
		for len(stack) >= 2 {
			a, b := stack[len(stack)-2], stack[len(stack)-1]
			if a.size == b.size && a.key+a.size == b.key && a.key%(2*a.size) == 0 {
				stack = stack[:len(stack)-2]
				stack = append(stack, run{key: a.key, size: a.size * 2})
				continue
			}
			break
		}
	}
	for _, k := range uniq {
		push(run{key: k, size: 1})
	}
	out := make([]netip.Prefix, 0, len(stack))
	for _, r := range stack {
		bits := maxBits
		for s := r.size; s > 1; s >>= 1 {
			bits--
		}
		out = append(out, mk(r.key, bits))
	}
	return out
}

// ExpandPrefix lists the unit blocks (/24 or /48) covered by a prefix. For
// IPv4 the prefix must be /24 or shorter; for IPv6, /48 or shorter.
// Prefixes shorter than the unit by more than 20 bits are rejected as a
// safety bound (over a million unit blocks).
func ExpandPrefix(p netip.Prefix) ([]Block, bool) {
	p = p.Masked()
	unitBits, fam := 24, IPv4
	if p.Addr().Is6() && !p.Addr().Is4In6() {
		unitBits, fam = 48, IPv6
	}
	if p.Bits() > unitBits || unitBits-p.Bits() > 20 {
		return nil, false
	}
	base := BlockFromAddr(p.Addr())
	n := uint64(1) << (unitBits - p.Bits())
	out := make([]Block, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, MakeBlock(fam, base.Key()+i))
	}
	return out, true
}

// Package lpm is the zero-allocation longest-prefix-match core of the
// serving path: an immutable, level-compressed trie laid out in contiguous
// uint32 arrays, built once from a prefix set and read-only thereafter.
//
// IPv4 and IPv6 prefixes share one 128-bit keyspace — IPv4 lives in the
// IPv4-mapped-IPv6 block (::ffff:0:0/96), as netaddr.MappedPrefix defines
// it (the pointer-per-bit radix trie the tests use as an oracle derives
// keys the same way). Unlike that trie, a lookup here never follows a pointer and
// never allocates: it walks node descriptors in one flat slice (path
// compression skips shared bit runs, level compression consumes several
// bits per step), lands on a base prefix, and resolves nesting by
// comparing the probe against that prefix's stored bits plus a chain of
// its stored ancestors. The layout is the LC-trie of Nilsson & Karlsson
// ("IP-address lookup using LC-tries", IEEE JSAC 1999) with the prefix
// vector realized as per-leaf ancestor chains.
//
// Build cost is O(n log n); the result is safe for unlimited concurrent
// readers because nothing mutates after Build returns.
package lpm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"sort"

	"cellspot/internal/netaddr"
)

// Entry is one prefix→value pair of the set a Matcher is built from.
// Values are small integers by design: the serving map stores entry
// indices, keeping the matcher itself free of wide payloads.
type Entry struct {
	Prefix netip.Prefix
	Value  int32
}

// maxBranch caps level compression at 2^maxBranch children per node. 12
// bits = 4096-slot nodes; beyond that the fill-factor-1.0 rule almost
// never fires and the descriptor encoding would need wider fields.
const maxBranch = 12

// node descriptor layout: each node is two consecutive uint32 words in
// Matcher.nodes. Word 0 packs branch (bits 8..15, 0 means leaf) and skip
// (bits 0..7, path-compressed bits consumed before branching). Word 1 is
// the index of the first child node for internal nodes (children are
// contiguous: child j lives at index ptr+j) or the base-vector index for
// leaves.
const (
	branchShift = 8
	skipMask    = 0xff
)

// baseEntry is one maximal stored prefix (not a proper prefix of any
// other). A lookup always terminates on exactly one base entry; nesting
// resolves through chain, the index of the entry's nearest stored
// ancestor in the chain vector (-1 when none).
type baseEntry struct {
	hi, lo uint64 // prefix bits in the unified space, big-endian halves
	val    int32
	chain  int32
	plen   uint8 // prefix length in the unified space (0..128)
}

// chainEntry is one stored ancestor on a base entry's nesting chain.
// Ancestor bits need not be stored: an ancestor is by definition a prefix
// of the base entry it chains from, so containment checks reuse the base
// entry's bits.
type chainEntry struct {
	val  int32
	next int32
	plen uint8
}

// Matcher is the immutable flat matcher. The zero value and nil both
// behave as an empty set (every lookup misses).
type Matcher struct {
	nodes []uint32
	base  []baseEntry
	chain []chainEntry
}

// buildKey is one entry in the unified space during Build.
type buildKey struct {
	hi, lo uint64
	plen   uint8
	val    int32
}

// contains reports whether a's prefix covers b's address bits.
func (a buildKey) contains(b buildKey) bool {
	if a.plen > b.plen {
		return false
	}
	return firstDiff128(a.hi^b.hi, a.lo^b.lo) >= int(a.plen)
}

// firstDiff128 returns the position of the most significant set bit of
// the 128-bit value hi,lo — i.e. the first differing bit position of two
// XORed keys — or 128 when the value is zero.
func firstDiff128(hi, lo uint64) int {
	if hi != 0 {
		return bits.LeadingZeros64(hi)
	}
	if lo != 0 {
		return 64 + bits.LeadingZeros64(lo)
	}
	return 128
}

// Build constructs a Matcher from entries. Prefixes are canonicalized
// (Masked) into the unified space; duplicate prefixes are an error, since
// silently letting one value shadow another is exactly the corruption a
// serving index must refuse. The input slice is not retained.
func Build(entries []Entry) (*Matcher, error) {
	keys := make([]buildKey, 0, len(entries))
	for _, e := range entries {
		a, depth, err := netaddr.MappedPrefix(e.Prefix.Masked())
		if err != nil {
			return nil, fmt.Errorf("lpm: %s: %w", e.Prefix, err)
		}
		keys = append(keys, buildKey{
			hi:   binary.BigEndian.Uint64(a[0:8]),
			lo:   binary.BigEndian.Uint64(a[8:16]),
			plen: uint8(depth),
			val:  e.Value,
		})
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.hi != b.hi {
			return a.hi < b.hi
		}
		if a.lo != b.lo {
			return a.lo < b.lo
		}
		return a.plen < b.plen
	})
	for i := 1; i < len(keys); i++ {
		if keys[i].hi == keys[i-1].hi && keys[i].lo == keys[i-1].lo && keys[i].plen == keys[i-1].plen {
			return nil, fmt.Errorf("lpm: duplicate prefix (mapped %016x%016x/%d)",
				keys[i].hi, keys[i].lo, keys[i].plen)
		}
	}
	m := &Matcher{}
	if len(keys) == 0 {
		return m, nil
	}

	// Ancestor resolution: in sorted order a prefix's descendants follow it
	// contiguously, so a stack of the current nesting path finds every
	// parent in one pass.
	parent := make([]int32, len(keys))
	internal := make([]bool, len(keys))
	stack := make([]int32, 0, 8)
	for i := range keys {
		for len(stack) > 0 && !keys[stack[len(stack)-1]].contains(keys[i]) {
			stack = stack[:len(stack)-1]
		}
		parent[i] = -1
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			parent[i] = p
			internal[p] = true
		}
		stack = append(stack, int32(i))
	}

	// Chain vector: one entry per internal prefix, linked to its own
	// parent's chain entry. Parents precede children in sorted order, so
	// one forward pass resolves every link.
	chainIdx := make([]int32, len(keys))
	for i := range keys {
		chainIdx[i] = -1
		if !internal[i] {
			continue
		}
		next := int32(-1)
		if p := parent[i]; p >= 0 {
			next = chainIdx[p]
		}
		chainIdx[i] = int32(len(m.chain))
		m.chain = append(m.chain, chainEntry{val: keys[i].val, next: next, plen: keys[i].plen})
	}

	// Base vector: the maximal prefixes, in address order (they are
	// pairwise disjoint, so address order is also interval order).
	for i, k := range keys {
		if internal[i] {
			continue
		}
		chain := int32(-1)
		if p := parent[i]; p >= 0 {
			chain = chainIdx[p]
		}
		m.base = append(m.base, baseEntry{hi: k.hi, lo: k.lo, val: k.val, chain: chain, plen: k.plen})
	}

	// Trie over the base vector. Root is node 0; children blocks are
	// reserved before recursing so every node's children stay contiguous.
	m.nodes = make([]uint32, 2)
	m.buildAt(0, 0, len(m.base), 0)
	return m, nil
}

// buildAt fills the pre-reserved node at index node with the subtree over
// base[lo:hi], whose members all share their first depth bits.
func (m *Matcher) buildAt(node uint32, lo, hi, depth int) {
	if hi-lo == 1 {
		m.nodes[2*node] = 0
		m.nodes[2*node+1] = uint32(lo)
		return
	}
	first, last := m.base[lo], m.base[hi-1]
	// The range is sorted, so the extremes bound the shared prefix of all
	// members: they agree exactly on bits [0, common).
	common := firstDiff128(first.hi^last.hi, first.lo^last.lo)
	skip := common - depth

	// Level compression, fill factor 1.0: branch on the widest bit window
	// after common such that every slot is populated and no member's
	// prefix ends inside the window (members are disjoint, so a member
	// shorter than common+branch would cover several slots and need
	// duplication — we cap the window instead and let recursion finish).
	minPlen := 128
	for i := lo; i < hi; i++ {
		if p := int(m.base[i].plen); p < minPlen {
			minPlen = p
		}
	}
	branch := 1
	for branch+1 <= maxBranch && common+branch+1 <= minPlen && slotsFull(m.base[lo:hi], common, branch+1) {
		branch++
	}

	m.nodes[2*node] = uint32(branch)<<branchShift | uint32(skip)
	childBase := uint32(len(m.nodes) / 2)
	m.nodes[2*node+1] = childBase
	m.nodes = append(m.nodes, make([]uint32, 2<<branch)...)

	s := lo
	for slot := 0; slot < 1<<branch; slot++ {
		e := s
		for e < hi && extract128(m.base[e].hi, m.base[e].lo, common, branch) == slot {
			e++
		}
		m.buildAt(childBase+uint32(slot), s, e, common+branch)
		s = e
	}
}

// slotsFull reports whether every width-bit pattern at bit offset pos
// occurs in the (sorted) members — the fill-factor-1.0 gate for level
// compression.
func slotsFull(members []baseEntry, pos, width int) bool {
	distinct, prev := 0, -1
	for i := range members {
		s := extract128(members[i].hi, members[i].lo, pos, width)
		if s != prev {
			distinct++
			prev = s
		}
	}
	return distinct == 1<<width
}

// extract128 returns bits [pos, pos+width) of the 128-bit value hi,lo as
// an int. Requires pos+width <= 128 and width <= 32.
func extract128(hi, lo uint64, pos, width int) int {
	switch {
	case pos+width <= 64:
		return int(hi >> (64 - pos - width) & (1<<width - 1))
	case pos >= 64:
		return int(lo >> (128 - pos - width) & (1<<width - 1))
	default:
		left := 64 - pos      // bits taken from the tail of hi
		right := width - left // bits taken from the head of lo
		return int((hi&((1<<left)-1))<<right | lo>>(64-right))
	}
}

// Lookup returns the value of the longest stored prefix containing addr.
// It performs no allocations and touches only the matcher's flat arrays.
func (m *Matcher) Lookup(addr netip.Addr) (int32, bool) {
	if m == nil || len(m.base) == 0 {
		return 0, false
	}
	a := addr.As16()
	return m.lookup(binary.BigEndian.Uint64(a[0:8]), binary.BigEndian.Uint64(a[8:16]))
}

// lookup resolves the 128-bit key hi,lo in the unified space.
func (m *Matcher) lookup(hi, lo uint64) (int32, bool) {
	nodes := m.nodes
	node, depth := uint32(0), 0
	for {
		w := nodes[2*node]
		branch := int(w >> branchShift)
		if branch == 0 {
			return m.matchBase(nodes[2*node+1], hi, lo)
		}
		depth += int(w & skipMask)
		node = nodes[2*node+1] + uint32(extract128(hi, lo, depth, branch))
		depth += branch
	}
}

// matchBase resolves the probe against base entry bi: the descent skipped
// bits blindly, so the probe may diverge from the base prefix anywhere.
// One XOR pair locates the first divergence; the base entry matches when
// its whole prefix precedes it, and otherwise the answer is the longest
// stored ancestor short enough to precede it — every stored prefix
// containing the probe is provably on this chain.
func (m *Matcher) matchBase(bi uint32, hi, lo uint64) (int32, bool) {
	b := &m.base[bi]
	d := firstDiff128(hi^b.hi, lo^b.lo)
	if int(b.plen) <= d {
		return b.val, true
	}
	for ci := b.chain; ci >= 0; ci = m.chain[ci].next {
		if int(m.chain[ci].plen) <= d {
			return m.chain[ci].val, true
		}
	}
	return 0, false
}

package lpm

import (
	"math/rand/v2"
	"net/netip"
	"testing"

	"cellspot/internal/netaddr"
)

// radixTrie is the pointer-per-bit binary radix trie the flat matcher
// replaced, kept as the differential oracle: it is slow and obviously
// correct. Prefixes live in the same unified IPv4-mapped-IPv6 space,
// derived by the same netaddr.MappedPrefix, so the two structures cannot
// disagree about where a prefix lives. Insert replaces the value at an
// existing prefix (Build refuses duplicates instead).
type radixTrie struct {
	root *trieNode
	size int
}

type trieNode struct {
	child [2]*trieNode
	val   int32
	set   bool
}

func bitAt(addr [16]byte, i int) int {
	return int(addr[i/8]>>(7-i%8)) & 1
}

// Insert stores val at prefix p, replacing any existing value at exactly p.
func (t *radixTrie) Insert(p netip.Prefix, val int32) error {
	addr, depth, err := netaddr.MappedPrefix(p.Masked())
	if err != nil {
		return err
	}
	if t.root == nil {
		t.root = &trieNode{}
	}
	n := t.root
	for i := 0; i < depth; i++ {
		b := bitAt(addr, i)
		if n.child[b] == nil {
			n.child[b] = &trieNode{}
		}
		n = n.child[b]
	}
	if !n.set {
		t.size++
	}
	n.val, n.set = val, true
	return nil
}

// Lookup returns the value of the longest prefix containing addr.
func (t *radixTrie) Lookup(addr netip.Addr) (val int32, ok bool) {
	if t.root == nil {
		return val, false
	}
	a := addr
	if a.Is4() {
		a = netip.AddrFrom16(a.As16())
	}
	bits := a.As16()
	n := t.root
	for i := 0; ; i++ {
		if n.set {
			val, ok = n.val, true
		}
		if i >= 128 {
			break
		}
		n = n.child[bitAt(bits, i)]
		if n == nil {
			break
		}
	}
	return val, ok
}

// Len returns the number of prefixes stored.
func (t *radixTrie) Len() int { return t.size }

func TestTrieLongestMatch(t *testing.T) {
	var tr radixTrie
	ins := map[string]int32{
		"10.0.0.0/8":      1,
		"10.1.0.0/16":     2,
		"10.1.2.0/24":     3,
		"2001:db8::/32":   4,
		"2001:db8:7::/48": 5,
	}
	for p, v := range ins {
		if err := tr.Insert(netip.MustParsePrefix(p), v); err != nil {
			t.Fatalf("Insert(%s): %v", p, err)
		}
	}
	if tr.Len() != len(ins) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ins))
	}
	cases := []struct {
		addr string
		want int32
		ok   bool
	}{
		{"10.1.2.3", 3, true},
		{"10.1.9.9", 2, true},
		{"10.200.0.1", 1, true},
		{"11.0.0.1", 0, false},
		{"2001:db8:7::1", 5, true},
		{"2001:db8:8::1", 4, true},
		{"2001:db9::1", 0, false},
	}
	for _, c := range cases {
		got, ok := tr.Lookup(netip.MustParseAddr(c.addr))
		if ok != c.ok || got != c.want {
			t.Errorf("Lookup(%s) = %d,%v, want %d,%v", c.addr, got, ok, c.want, c.ok)
		}
	}
}

// Property: trie longest-match agrees with a naive linear scan.
func TestTrieMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for round := 0; round < 20; round++ {
		var tr radixTrie
		prefixes := make([]netip.Prefix, 0, 50)
		for i := 0; i < 50; i++ {
			p := canonical(randV4Prefix(rng))
			prefixes = append(prefixes, p)
			tr.Insert(p, int32(i))
		}
		for probe := 0; probe < 100; probe++ {
			addr := netip.AddrFrom4([4]byte{byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32())})
			bestBits, bestIdx, bestOK := -1, -1, false
			for i, p := range prefixes {
				if p.Contains(addr) && p.Bits() > bestBits {
					bestBits, bestIdx, bestOK = p.Bits(), i, true
				}
			}
			// Later duplicates overwrite earlier ones in the trie; mimic that.
			if bestOK {
				for i := len(prefixes) - 1; i >= 0; i-- {
					if prefixes[i] == prefixes[bestIdx] {
						bestIdx = i
						break
					}
				}
			}
			got, ok := tr.Lookup(addr)
			if ok != bestOK || (ok && int(got) != bestIdx) {
				t.Fatalf("round %d: Lookup(%v) = %d,%v, naive = %d,%v", round, addr, got, ok, bestIdx, bestOK)
			}
		}
	}
}

func TestTrieEmpty(t *testing.T) {
	var tr radixTrie
	if _, ok := tr.Lookup(netip.MustParseAddr("1.2.3.4")); ok {
		t.Error("empty trie matched")
	}
	if tr.Len() != 0 {
		t.Errorf("empty trie Len = %d", tr.Len())
	}
}

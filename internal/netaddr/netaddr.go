// Package netaddr provides the address-block vocabulary used throughout the
// cellspot reproduction: IPv4 /24 blocks and IPv6 /48 blocks — the two
// aggregation granularities the paper uses for all subnet-level analysis —
// plus prefix aggregation and the unified IPv4-mapped-IPv6 keyspace that
// longest-prefix matching uses.
//
// The paper aggregates every measurement by /24 (IPv4) or /48 (IPv6) because
// recent studies find those to be the smallest allocation units that are
// homogeneous with respect to access technology. Block is the comparable map
// key for one such aggregate.
package netaddr

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"
	"strconv"
	"strings"
)

// Family identifies the IP family of a Block.
type Family uint8

const (
	// IPv4 marks a /24 IPv4 block.
	IPv4 Family = iota
	// IPv6 marks a /48 IPv6 block.
	IPv6
)

// String returns "v4" or "v6".
func (f Family) String() string {
	if f == IPv6 {
		return "v6"
	}
	return "v4"
}

// Block identifies one aggregation unit: a /24 for IPv4 or a /48 for IPv6.
// Blocks are comparable and intended for use as map keys.
//
// For IPv4 the key holds the top 24 address bits (addr >> 8); for IPv6 it
// holds the top 48 bits (first six bytes) of the address.
//
// A Block is one machine word: the family in the top byte (bits 56-63) and
// the key in the low bits. Plain uint64 order is therefore the canonical
// (family, key) order, and the zero Block is IPv4 key 0. The packing is
// what makes blocks cheap map keys: a padded two-field struct gets
// generated hash and equality functions and the generic map path, while a
// one-word struct takes Go's fast 64-bit map path at half the key size.
type Block struct{ v uint64 }

const (
	famShift = 56
	keyMask  = 1<<famShift - 1
)

// MakeBlock returns the block of family f with key k. The key must fit the
// family (24 bits for IPv4, 48 for IPv6); bits from 56 up are dropped so a
// key can never spill into the family.
func MakeBlock(f Family, k uint64) Block { return Block{uint64(f)<<famShift | k&keyMask} }

// Fam returns the block's family.
func (b Block) Fam() Family { return Family(b.v >> famShift) }

// Key returns the block's key: the top 24 (IPv4) or 48 (IPv6) address bits.
func (b Block) Key() uint64 { return b.v & keyMask }

// maxKey returns the largest key of family f.
func maxKey(f Family) uint64 {
	if f == IPv6 {
		return 1<<48 - 1
	}
	return 1<<24 - 1
}

// Less orders blocks canonically: IPv4 before IPv6, then by key. The order
// is used wherever floating-point sums must be reproducible run to run.
func (b Block) Less(o Block) bool { return b.v < o.v }

// Compare orders blocks like Less, returning -1, 0 or +1 for use with
// slices.SortFunc.
func (b Block) Compare(o Block) int { return cmp.Compare(b.v, o.v) }

// MarshalJSON writes the block as {"Fam":F,"Key":K}. demand.jsonl rows
// carry this form, so it must stay byte for byte what a two-field
// struct{Fam Family; Key uint64} encodes to.
func (b Block) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 32)
	buf = append(buf, `{"Fam":`...)
	buf = strconv.AppendUint(buf, uint64(b.Fam()), 10)
	buf = append(buf, `,"Key":`...)
	buf = strconv.AppendUint(buf, b.Key(), 10)
	return append(buf, '}'), nil
}

// UnmarshalJSON reads the form MarshalJSON writes. It rejects an unknown
// family and a key wider than its family, the bounds ParseIndex applies.
func (b *Block) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var w struct {
		Fam Family
		Key uint64
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("netaddr: decode block: %w", err)
	}
	if w.Fam != IPv4 && w.Fam != IPv6 {
		return fmt.Errorf("netaddr: decode block: unknown family %d", w.Fam)
	}
	if w.Key > maxKey(w.Fam) {
		return fmt.Errorf("netaddr: decode block: key %#x out of range for %v", w.Key, w.Fam)
	}
	*b = MakeBlock(w.Fam, w.Key)
	return nil
}

// SortBlocks sorts blocks in place into canonical order.
func SortBlocks(blocks []Block) { slices.SortFunc(blocks, Block.Compare) }

// BlockFromAddr returns the enclosing /24 or /48 block of addr.
// IPv4-mapped IPv6 addresses are unmapped first.
func BlockFromAddr(addr netip.Addr) Block {
	addr = addr.Unmap()
	if addr.Is4() {
		b := addr.As4()
		return MakeBlock(IPv4, uint64(b[0])<<16|uint64(b[1])<<8|uint64(b[2]))
	}
	b := addr.As16()
	var k uint64
	for i := 0; i < 6; i++ {
		k = k<<8 | uint64(b[i])
	}
	return MakeBlock(IPv6, k)
}

// V4Block returns the /24 block with the given top-three octets.
func V4Block(a, b, c byte) Block {
	return MakeBlock(IPv4, uint64(a)<<16|uint64(b)<<8|uint64(c))
}

// V6Block returns the /48 block with the given top 48 bits.
func V6Block(top48 uint64) Block {
	return MakeBlock(IPv6, top48&maxKey(IPv6))
}

// Addr returns the first address of the block (host bits zero).
func (b Block) Addr() netip.Addr {
	k := b.Key()
	if b.Fam() == IPv4 {
		return netip.AddrFrom4([4]byte{byte(k >> 16), byte(k >> 8), byte(k)})
	}
	var a [16]byte
	for i := 0; i < 6; i++ {
		a[i] = byte(k >> (8 * (5 - i)))
	}
	return netip.AddrFrom16(a)
}

// Prefix returns the block as a netip.Prefix (/24 or /48).
func (b Block) Prefix() netip.Prefix {
	if b.Fam() == IPv4 {
		return netip.PrefixFrom(b.Addr(), 24)
	}
	return netip.PrefixFrom(b.Addr(), 48)
}

// HostAddr returns the host'th address inside the block. For IPv4 blocks
// host is taken modulo 256; for IPv6 the host index is placed in the low
// 64 bits of the interface identifier.
func (b Block) HostAddr(host uint64) netip.Addr {
	k := b.Key()
	if b.Fam() == IPv4 {
		return netip.AddrFrom4([4]byte{byte(k >> 16), byte(k >> 8), byte(k), byte(host)})
	}
	var a [16]byte
	for i := 0; i < 6; i++ {
		a[i] = byte(k >> (8 * (5 - i)))
	}
	for i := 0; i < 8; i++ {
		a[15-i] = byte(host >> (8 * i))
	}
	return netip.AddrFrom16(a)
}

// IsV6 reports whether the block is an IPv6 /48.
func (b Block) IsV6() bool { return b.Fam() == IPv6 }

// String formats the block in CIDR notation, e.g. "192.0.2.0/24" or
// "2001:db8:1::/48".
func (b Block) String() string { return b.Prefix().String() }

// ParseBlock parses a /24 or /48 block from CIDR notation. The prefix length
// must be exactly 24 (IPv4) or 48 (IPv6) and host bits must be zero.
func ParseBlock(s string) (Block, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return Block{}, fmt.Errorf("netaddr: parse block %q: %w", s, err)
	}
	if p.Addr().Is4() {
		if p.Bits() != 24 {
			return Block{}, fmt.Errorf("netaddr: parse block %q: IPv4 blocks must be /24", s)
		}
	} else if p.Bits() != 48 {
		return Block{}, fmt.Errorf("netaddr: parse block %q: IPv6 blocks must be /48", s)
	}
	if p.Masked() != p {
		return Block{}, fmt.Errorf("netaddr: parse block %q: host bits set", s)
	}
	return BlockFromAddr(p.Addr()), nil
}

// Set is a set of blocks.
type Set map[Block]struct{}

// NewSet builds a Set from blocks.
func NewSet(blocks ...Block) Set {
	s := make(Set, len(blocks))
	for _, b := range blocks {
		s[b] = struct{}{}
	}
	return s
}

// Add inserts b into the set.
func (s Set) Add(b Block) { s[b] = struct{}{} }

// Has reports whether b is in the set.
func (s Set) Has(b Block) bool {
	_, ok := s[b]
	return ok
}

// Len returns the number of blocks in the set.
func (s Set) Len() int { return len(s) }

// CountFamily returns the number of blocks of the given family.
func (s Set) CountFamily(f Family) int {
	n := 0
	for b := range s {
		if b.Fam() == f {
			n++
		}
	}
	return n
}

// FormatIndex renders a block key as the compact hexadecimal token that
// live checkpoints store; ParseIndex reverses it.
func FormatIndex(b Block) string {
	return b.Fam().String() + "-" + strconv.FormatUint(b.Key(), 16)
}

// ParseIndex parses a token produced by FormatIndex.
func ParseIndex(s string) (Block, error) {
	fam, rest, ok := strings.Cut(s, "-")
	if !ok {
		return Block{}, fmt.Errorf("netaddr: parse index %q: missing family", s)
	}
	var f Family
	switch fam {
	case "v4":
		f = IPv4
	case "v6":
		f = IPv6
	default:
		return Block{}, fmt.Errorf("netaddr: parse index %q: unknown family %q", s, fam)
	}
	k, err := strconv.ParseUint(rest, 16, 64)
	if err != nil {
		return Block{}, fmt.Errorf("netaddr: parse index %q: %w", s, err)
	}
	if k > maxKey(f) {
		return Block{}, fmt.Errorf("netaddr: parse index %q: key out of range", s)
	}
	return MakeBlock(f, k), nil
}

// MappedPrefix returns the prefix's address as a 16-byte array in the
// unified IPv4-mapped-IPv6 space and its depth in that space (the prefix
// length, offset by 96 for IPv4). It is the single definition of the
// unified space used by the flat matcher in internal/lpm and by its
// test oracle, so the two structures cannot disagree about where a prefix
// lives.
func MappedPrefix(p netip.Prefix) (addr [16]byte, depth int, err error) {
	if !p.IsValid() {
		return addr, 0, fmt.Errorf("netaddr: invalid prefix")
	}
	a := p.Addr()
	if a.Is4() {
		a = netip.AddrFrom16(a.As16()) // IPv4-mapped form
		depth = 96 + p.Bits()
	} else {
		depth = p.Bits()
	}
	return a.As16(), depth, nil
}

// Package netaddr provides the address-block vocabulary used throughout the
// cellspot reproduction: IPv4 /24 blocks and IPv6 /48 blocks — the two
// aggregation granularities the paper uses for all subnet-level analysis —
// plus CIDR prefix tries for longest-prefix matching against ground-truth
// allocation lists.
//
// The paper aggregates every measurement by /24 (IPv4) or /48 (IPv6) because
// recent studies find those to be the smallest allocation units that are
// homogeneous with respect to access technology. Block is the comparable map
// key for one such aggregate.
package netaddr

import (
	"cmp"
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
type Block struct {
	Fam Family
	Key uint64
}

// Less orders blocks canonically: IPv4 before IPv6, then by key. The order
// is used wherever floating-point sums must be reproducible run to run.
func (b Block) Less(o Block) bool {
	if b.Fam != o.Fam {
		return b.Fam < o.Fam
	}
	return b.Key < o.Key
}

// Compare orders blocks like Less, returning -1, 0 or +1 for use with
// slices.SortFunc.
func (b Block) Compare(o Block) int {
	if c := cmp.Compare(b.Fam, o.Fam); c != 0 {
		return c
	}
	return cmp.Compare(b.Key, o.Key)
}

// SortBlocks sorts blocks in place into canonical order.
func SortBlocks(blocks []Block) { slices.SortFunc(blocks, Block.Compare) }

// BlockFromAddr returns the enclosing /24 or /48 block of addr.
// IPv4-mapped IPv6 addresses are unmapped first.
func BlockFromAddr(addr netip.Addr) Block {
	addr = addr.Unmap()
	if addr.Is4() {
		b := addr.As4()
		return Block{Fam: IPv4, Key: uint64(b[0])<<16 | uint64(b[1])<<8 | uint64(b[2])}
	}
	b := addr.As16()
	var k uint64
	for i := 0; i < 6; i++ {
		k = k<<8 | uint64(b[i])
	}
	return Block{Fam: IPv6, Key: k}
}

// V4Block returns the /24 block with the given top-three octets.
func V4Block(a, b, c byte) Block {
	return Block{Fam: IPv4, Key: uint64(a)<<16 | uint64(b)<<8 | uint64(c)}
}

// V6Block returns the /48 block with the given top 48 bits.
func V6Block(top48 uint64) Block {
	return Block{Fam: IPv6, Key: top48 & (1<<48 - 1)}
}

// Addr returns the first address of the block (host bits zero).
func (b Block) Addr() netip.Addr {
	if b.Fam == IPv4 {
		return netip.AddrFrom4([4]byte{byte(b.Key >> 16), byte(b.Key >> 8), byte(b.Key)})
	}
	var a [16]byte
	for i := 0; i < 6; i++ {
		a[i] = byte(b.Key >> (8 * (5 - i)))
	}
	return netip.AddrFrom16(a)
}

// Prefix returns the block as a netip.Prefix (/24 or /48).
func (b Block) Prefix() netip.Prefix {
	if b.Fam == IPv4 {
		return netip.PrefixFrom(b.Addr(), 24)
	}
	return netip.PrefixFrom(b.Addr(), 48)
}

// Bits returns the prefix length of the block: 24 for IPv4, 48 for IPv6.
func (b Block) Bits() int {
	if b.Fam == IPv4 {
		return 24
	}
	return 48
}

// HostAddr returns the host'th address inside the block. For IPv4 blocks
// host is taken modulo 256; for IPv6 the host index is placed in the low
// 64 bits of the interface identifier.
func (b Block) HostAddr(host uint64) netip.Addr {
	if b.Fam == IPv4 {
		return netip.AddrFrom4([4]byte{byte(b.Key >> 16), byte(b.Key >> 8), byte(b.Key), byte(host)})
	}
	var a [16]byte
	for i := 0; i < 6; i++ {
		a[i] = byte(b.Key >> (8 * (5 - i)))
	}
	for i := 0; i < 8; i++ {
		a[15-i] = byte(host >> (8 * i))
	}
	return netip.AddrFrom16(a)
}

// IsV6 reports whether the block is an IPv6 /48.
func (b Block) IsV6() bool { return b.Fam == IPv6 }

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

// MustParseBlock is ParseBlock that panics on error; for tests and tables.
func MustParseBlock(s string) Block {
	b, err := ParseBlock(s)
	if err != nil {
		panic(err)
	}
	return b
}

// Contains reports whether addr falls inside the block.
func (b Block) Contains(addr netip.Addr) bool {
	return BlockFromAddr(addr) == b
}

// Next returns the block immediately following b in address order within the
// same family. The key wraps silently at the end of the family's space.
func (b Block) Next() Block {
	mask := uint64(1)<<24 - 1
	if b.Fam == IPv6 {
		mask = 1<<48 - 1
	}
	return Block{Fam: b.Fam, Key: (b.Key + 1) & mask}
}

// Range enumerates n consecutive blocks starting at b.
func (b Block) Range(n int) []Block {
	out := make([]Block, 0, n)
	cur := b
	for i := 0; i < n; i++ {
		out = append(out, cur)
		cur = cur.Next()
	}
	return out
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
		if b.Fam == f {
			n++
		}
	}
	return n
}

// FormatIndex renders a block key as a compact hexadecimal token, used in
// log filenames and debug output. ParseIndex reverses it.
func FormatIndex(b Block) string {
	return b.Fam.String() + "-" + strconv.FormatUint(b.Key, 16)
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
	max := uint64(1)<<24 - 1
	if f == IPv6 {
		max = 1<<48 - 1
	}
	if k > max {
		return Block{}, fmt.Errorf("netaddr: parse index %q: key out of range", s)
	}
	return Block{Fam: f, Key: k}, nil
}

package netaddr

import (
	"encoding/json"
	"math/rand/v2"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestBlockFromAddrV4(t *testing.T) {
	b := BlockFromAddr(netip.MustParseAddr("192.0.2.77"))
	if got, want := b.String(), "192.0.2.0/24"; got != want {
		t.Errorf("block = %s, want %s", got, want)
	}
	if b.Fam() != IPv4 || b.IsV6() {
		t.Errorf("family = %v, want IPv4", b.Fam())
	}
}

func TestBlockFromAddrV6(t *testing.T) {
	b := BlockFromAddr(netip.MustParseAddr("2001:db8:99:1::5"))
	if got, want := b.String(), "2001:db8:99::/48"; got != want {
		t.Errorf("block = %s, want %s", got, want)
	}
	if !b.IsV6() {
		t.Errorf("family = %v, want IPv6", b.Fam())
	}
}

func TestBlockFromAddrUnmapsV4InV6(t *testing.T) {
	mapped := netip.MustParseAddr("::ffff:198.51.100.9")
	if got, want := BlockFromAddr(mapped), V4Block(198, 51, 100); got != want {
		t.Errorf("mapped v4 block = %v, want %v", got, want)
	}
}

func TestParseBlockRoundTrip(t *testing.T) {
	for _, s := range []string{"10.0.0.0/24", "203.0.113.0/24", "2001:db8::/48", "2607:f8b0:1234::/48"} {
		b, err := ParseBlock(s)
		if err != nil {
			t.Fatalf("ParseBlock(%q): %v", s, err)
		}
		if b.String() != s {
			t.Errorf("round trip %q -> %q", s, b.String())
		}
	}
}

func TestParseBlockRejects(t *testing.T) {
	for _, s := range []string{
		"10.0.0.0/16",    // wrong v4 length
		"10.0.0.1/24",    // host bits set
		"2001:db8::/64",  // wrong v6 length
		"2001:db8::1/48", // host bits set
		"not-a-prefix",   // garbage
		"10.0.0.0",       // bare address
		"300.0.0.0/24",   // invalid octet
	} {
		if _, err := ParseBlock(s); err == nil {
			t.Errorf("ParseBlock(%q) succeeded, want error", s)
		}
	}
}

func TestBlockHostAddr(t *testing.T) {
	b := V4Block(192, 0, 2)
	if got, want := b.HostAddr(7), netip.MustParseAddr("192.0.2.7"); got != want {
		t.Errorf("HostAddr(7) = %v, want %v", got, want)
	}
	if BlockFromAddr(b.HostAddr(255)) != b {
		t.Error("block does not contain its own host address")
	}
	v6, err := ParseBlock("2001:db8:42::/48")
	if err != nil {
		t.Fatal(err)
	}
	a := v6.HostAddr(0x1234)
	if BlockFromAddr(a) != v6 {
		t.Errorf("v6 block does not contain host addr %v", a)
	}
}

func TestSet(t *testing.T) {
	s := NewSet(V4Block(1, 2, 3), V6Block(0x20010db80001))
	if !s.Has(V4Block(1, 2, 3)) || s.Has(V4Block(1, 2, 4)) {
		t.Error("Has misbehaves")
	}
	s.Add(V4Block(1, 2, 4))
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if s.CountFamily(IPv4) != 2 || s.CountFamily(IPv6) != 1 {
		t.Errorf("CountFamily = %d/%d", s.CountFamily(IPv4), s.CountFamily(IPv6))
	}
}

func TestFormatParseIndex(t *testing.T) {
	for _, b := range []Block{V4Block(1, 2, 3), V6Block(0x20010db800ff), MakeBlock(IPv4, 0)} {
		got, err := ParseIndex(FormatIndex(b))
		if err != nil {
			t.Fatalf("ParseIndex(%q): %v", FormatIndex(b), err)
		}
		if got != b {
			t.Errorf("round trip %v -> %v", b, got)
		}
	}
	for _, s := range []string{"", "v4", "v5-12", "v4-zz", "v4-ffffffff", "v6-ffffffffffffffff"} {
		if _, err := ParseIndex(s); err == nil {
			t.Errorf("ParseIndex(%q) succeeded, want error", s)
		}
	}
}

// Property: Block -> Addr -> Block is the identity for both families.
func TestBlockAddrRoundTripProperty(t *testing.T) {
	f := func(key uint64, v6 bool) bool {
		var b Block
		if v6 {
			b = V6Block(key)
		} else {
			b = MakeBlock(IPv4, key&(1<<24-1))
		}
		return BlockFromAddr(b.Addr()) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FormatIndex/ParseIndex round-trips for arbitrary in-range keys.
func TestIndexRoundTripProperty(t *testing.T) {
	f := func(key uint64, v6 bool) bool {
		var b Block
		if v6 {
			b = V6Block(key)
		} else {
			b = MakeBlock(IPv4, key&(1<<24-1))
		}
		got, err := ParseIndex(FormatIndex(b))
		return err == nil && got == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every host address generated from a block maps back to it.
func TestHostAddrContainedProperty(t *testing.T) {
	f := func(key, host uint64, v6 bool) bool {
		var b Block
		if v6 {
			b = V6Block(key)
		} else {
			b = MakeBlock(IPv4, key&(1<<24-1))
		}
		return BlockFromAddr(b.HostAddr(host)) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBlockIsOneWord pins the packed layout: a second field, or a wider
// one, would put every block-keyed map back on Go's generic map path.
func TestBlockIsOneWord(t *testing.T) {
	if got := unsafe.Sizeof(Block{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(Block{}) = %d, want 8", got)
	}
}

func TestMakeBlock(t *testing.T) {
	if zero := (Block{}); zero != MakeBlock(IPv4, 0) || zero.String() != "0.0.0.0/24" {
		t.Errorf("zero Block = %v, want IPv4 key 0", Block{})
	}
	if got := MakeBlock(IPv4, 0xc00002); got != V4Block(192, 0, 2) {
		t.Errorf("MakeBlock(IPv4, 0xc00002) = %v", got)
	}
	// Bits from 56 up never reach the family.
	if b := MakeBlock(IPv4, 1<<60|5); b.Fam() != IPv4 || b.Key() != 5 {
		t.Errorf("MakeBlock with a wide key = (%v, %#x)", b.Fam(), b.Key())
	}
	// Canonical order: every IPv4 block before every IPv6 block.
	if !MakeBlock(IPv4, 1<<24-1).Less(MakeBlock(IPv6, 0)) {
		t.Error("largest /24 does not sort before the smallest /48")
	}
}

func TestBlockJSON(t *testing.T) {
	for _, c := range []struct {
		b    Block
		want string
	}{
		{V4Block(1, 2, 3), `{"Fam":0,"Key":66051}`},
		{V6Block(0x20010db80001), `{"Fam":1,"Key":35188897218561}`},
		{Block{}, `{"Fam":0,"Key":0}`},
	} {
		raw, err := json.Marshal(c.b)
		if err != nil || string(raw) != c.want {
			t.Errorf("Marshal(%v) = %s, %v; want %s", c.b, raw, err, c.want)
		}
		var back Block
		if err := json.Unmarshal(raw, &back); err != nil || back != c.b {
			t.Errorf("Unmarshal(%s) = %v, %v", raw, back, err)
		}
	}
	for _, bad := range []string{
		`{"Fam":2,"Key":0}`,
		`{"Fam":0,"Key":16777216}`,
		`{"Fam":1,"Key":281474976710656}`,
		`{"Fam":-1,"Key":0}`,
		`{"Fam":0,"Key":"1"}`,
		`"10.0.0.0/24"`,
	} {
		var b Block
		if err := json.Unmarshal([]byte(bad), &b); err == nil {
			t.Errorf("Unmarshal(%s) = %v, want error", bad, b)
		}
	}
	b := V4Block(9, 9, 9)
	if err := json.Unmarshal([]byte("null"), &b); err != nil || b != V4Block(9, 9, 9) {
		t.Errorf("Unmarshal(null) changed the block to %v (%v)", b, err)
	}
}

func BenchmarkBlockFromAddr(b *testing.B) {
	a := netip.MustParseAddr("203.0.113.200")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BlockFromAddr(a)
	}
}

// TestSortByBlock: rows whose families interleave but whose keys ascend
// within each family keep their order within each family; rows in no
// order at all and rows already in canonical order end in canonical order
// with the same rows.
func TestSortByBlock(t *testing.T) {
	type row struct {
		b   Block
		tag int
	}
	key := func(r row) Block { return r.b }
	byBlockThenTag := func(x, y row) int {
		if c := x.b.Compare(y.b); c != 0 {
			return c
		}
		return x.tag - y.tag
	}
	var interleaved, shuffled []row
	for i := range 40 {
		interleaved = append(interleaved, row{MakeBlock(Family(i%3/2), uint64(i)), i})
	}
	want := slices.Clone(interleaved)
	slices.SortStableFunc(want, func(x, y row) int { return x.b.Compare(y.b) })
	if SortByBlock(interleaved, key); !slices.Equal(interleaved, want) {
		t.Errorf("interleaved families: %v, want %v", interleaved, want)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range 200 {
		shuffled = append(shuffled, row{MakeBlock(Family(rng.IntN(2)), uint64(rng.IntN(50))), i})
	}
	for name, rows := range map[string][]row{"shuffled with repeats": shuffled, "empty": nil} {
		want := slices.Clone(rows)
		slices.SortFunc(want, byBlockThenTag)
		SortByBlock(rows, key)
		if !slices.IsSortedFunc(rows, func(x, y row) int { return x.b.Compare(y.b) }) {
			t.Errorf("%s: not in canonical order: %v", name, rows)
		}
		if slices.SortFunc(rows, byBlockThenTag); !slices.Equal(rows, want) {
			t.Errorf("%s: rows changed: %v, want %v", name, rows, want)
		}
		sorted := slices.Clone(rows)
		if SortByBlock(sorted, key); !slices.Equal(sorted, rows) {
			t.Errorf("%s: rows already in canonical order moved", name)
		}
	}
}

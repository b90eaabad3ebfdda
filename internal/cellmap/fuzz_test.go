package cellmap

import (
	"bytes"
	"strings"
	"testing"

	"cellspot/internal/netaddr"
)

// FuzzRead checks that arbitrary bytes never panic the deserializer and
// that anything it accepts re-serializes and re-parses consistently.
func FuzzRead(f *testing.F) {
	f.Add(`{"format":"cellspot-map/1","entries":1}` + "\n" + `{"prefix":"10.0.0.0/24","asn":1,"du":5}` + "\n")
	f.Add(`{"format":"cellspot-map/1","entries":0}` + "\n")
	f.Add("")
	f.Add("{garbage")
	f.Add(`{"format":"cellspot-map/1","entries":2}` + "\n" + `{"prefix":"2001:db8::/48"}` + "\n")
	// Duplicate block: must be rejected, never silently last-wins.
	f.Add(`{"format":"cellspot-map/1","entries":2}` + "\n" +
		`{"prefix":"10.0.0.0/24","asn":1}` + "\n" + `{"prefix":"10.0.0.0/24","asn":2}` + "\n")
	// Non-canonical prefix (host bits set): rejected, would shadow its
	// masked twin in the index.
	f.Add(`{"format":"cellspot-map/1","entries":1}` + "\n" + `{"prefix":"10.0.0.9/24","asn":1}` + "\n")
	// Nested prefixes: legal, resolved by longest-prefix match.
	f.Add(`{"format":"cellspot-map/1","entries":2}` + "\n" +
		`{"prefix":"10.0.0.0/23","asn":1}` + "\n" + `{"prefix":"10.0.0.0/24","asn":2}` + "\n")
	// Unsorted input: Read must sort before indexing and dup-checking.
	f.Add(`{"format":"cellspot-map/1","entries":3}` + "\n" +
		`{"prefix":"10.0.2.0/24","asn":3}` + "\n" + `{"prefix":"10.0.0.0/24","asn":1}` + "\n" +
		`{"prefix":"10.0.1.0/24","asn":2}` + "\n")
	// Blank interior lines are tolerated; header count still enforced.
	f.Add(`{"format":"cellspot-map/1","entries":1}` + "\n\n" + `{"prefix":"192.0.2.0/24","asn":7}` + "\n\n")
	// Header promising more entries than the body delivers (truncation).
	f.Add(`{"format":"cellspot-map/1","entries":9}` + "\n" + `{"prefix":"10.0.0.0/24","asn":1}` + "\n")
	// Mixed-family body with v6 metadata fields.
	f.Add(`{"format":"cellspot-map/1","entries":2}` + "\n" +
		`{"prefix":"2001:db8:5::/48","asn":64512,"country":"DE","ratio":0.75,"du":12.5}` + "\n" +
		`{"prefix":"198.51.100.0/24","asn":64513,"ratio":1}` + "\n")
	f.Fuzz(func(t *testing.T, in string) {
		m, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatalf("accepted input failed to serialize: %v", err)
		}
		m2, err := Read(&buf)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if m2.Len() != m.Len() {
			t.Fatalf("round trip changed entry count: %d vs %d", m.Len(), m2.Len())
		}
	})
}

// FuzzParseBlock exercises the prefix grammar the map artifact is written
// in. Every constructible block must survive ParseBlock(b.String()) == b,
// and arbitrary strings must either be rejected or parse to a block that
// itself round-trips — malformed input never panics or produces a
// non-canonical block.
func FuzzParseBlock(f *testing.F) {
	// IPv4 /24 and IPv6 /48 corpus entries, plus malformed shapes.
	f.Add(false, uint64(0x0a0000), "10.0.0.0/24")
	f.Add(false, uint64(0xffffff), "255.255.255.0/24")
	f.Add(true, uint64(0x20010db80000), "2001:db8::/48")
	f.Add(true, uint64(0), "::/48")
	f.Add(false, uint64(0), "10.0.0.1/24")  // host bits set
	f.Add(false, uint64(1), "10.0.0.0/16")  // wrong v4 length
	f.Add(true, uint64(2), "2001:db8::/64") // wrong v6 length
	f.Add(false, uint64(3), "10.0.0.0/240") // absurd length
	f.Add(true, uint64(4), "not a prefix")  // garbage
	f.Add(false, uint64(5), "10.0.0.0")     // missing length
	f.Fuzz(func(t *testing.T, v6 bool, key uint64, raw string) {
		// Block-first: any in-range key must round-trip exactly.
		b := netaddr.MakeBlock(netaddr.IPv4, key&0xffffff)
		if v6 {
			b = netaddr.MakeBlock(netaddr.IPv6, key&0xffff_ffff_ffff)
		}
		got, err := netaddr.ParseBlock(b.String())
		if err != nil {
			t.Fatalf("own String %q rejected: %v", b.String(), err)
		}
		if got != b {
			t.Fatalf("round trip %v: got %v", b, got)
		}

		// String-first: accepted inputs must be canonical; rejected ones
		// must simply return an error (no panic).
		p, err := netaddr.ParseBlock(raw)
		if err != nil {
			return
		}
		again, err := netaddr.ParseBlock(p.String())
		if err != nil || again != p {
			t.Fatalf("accepted %q -> %v but canonical re-parse gave %v (%v)", raw, p, again, err)
		}
	})
}

package netaddr

import (
	"bytes"
	"cmp"
	"encoding/json"
	"testing"
)

// FuzzParseBlock checks that arbitrary input never panics and that every
// accepted block round-trips through String.
func FuzzParseBlock(f *testing.F) {
	for _, seed := range []string{
		"10.0.0.0/24", "2001:db8::/48", "not a prefix", "10.0.0.1/24",
		"10.0.0.0/16", "::/48", "255.255.255.0/24", "10.0.0.0/240",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b, err := ParseBlock(s)
		if err != nil {
			return
		}
		again, err := ParseBlock(b.String())
		if err != nil {
			t.Fatalf("accepted %q -> %v but re-parse failed: %v", s, b, err)
		}
		if again != b {
			t.Fatalf("round trip %q: %v != %v", s, b, again)
		}
	})
}

// FuzzParseIndex checks the compact index token parser.
func FuzzParseIndex(f *testing.F) {
	for _, seed := range []string{"v4-abc", "v6-ffff", "v5-0", "", "v4-", "v4-ffffffffffffffff"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b, err := ParseIndex(s)
		if err != nil {
			return
		}
		if got, err := ParseIndex(FormatIndex(b)); err != nil || got != b {
			t.Fatalf("round trip %q: %v vs %v (%v)", s, b, got, err)
		}
	})
}

// FuzzBlockPacking checks the one-word Block against the (family, key)
// pair it packs: the accessors round-trip, Compare and Less agree with the
// lexicographic (family, key) order, and the index-token, address and JSON
// forms all round-trip. The JSON bytes must be exactly what reflection
// writes for a struct{Fam Family; Key uint64}.
func FuzzBlockPacking(f *testing.F) {
	f.Add(false, uint64(0), false, uint64(0))
	f.Add(false, uint64(1<<24-1), true, uint64(0))
	f.Add(true, uint64(1<<48-1), true, uint64(1<<48-2))
	f.Add(true, uint64(0x20010db80001), false, uint64(0x20010d))
	f.Add(false, uint64(1<<63), true, uint64(1<<56|7))
	f.Fuzz(func(t *testing.T, v6a bool, ka uint64, v6b bool, kb uint64) {
		fam := func(v6 bool) Family {
			if v6 {
				return IPv6
			}
			return IPv4
		}
		fa, fb := fam(v6a), fam(v6b)
		ka &= maxKey(fa)
		kb &= maxKey(fb)
		a, b := MakeBlock(fa, ka), MakeBlock(fb, kb)

		if a.Fam() != fa || a.Key() != ka {
			t.Fatalf("MakeBlock(%v, %#x) unpacks to (%v, %#x)", fa, ka, a.Fam(), a.Key())
		}
		want := cmp.Or(cmp.Compare(fa, fb), cmp.Compare(ka, kb))
		if got := a.Compare(b); got != want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", a, b, got, want)
		}
		if a.Less(b) != (want < 0) || (a == b) != (want == 0) {
			t.Fatalf("Less/== disagree with Compare for %v, %v", a, b)
		}
		if got, err := ParseIndex(FormatIndex(a)); err != nil || got != a {
			t.Fatalf("index round trip %v: %v (%v)", a, got, err)
		}
		if got := BlockFromAddr(a.Addr()); got != a {
			t.Fatalf("address round trip %v: %v", a, got)
		}
		raw, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		old, _ := json.Marshal(struct {
			Fam Family
			Key uint64
		}{fa, ka})
		if !bytes.Equal(raw, old) {
			t.Fatalf("JSON %s, want the two-field form %s", raw, old)
		}
		var back Block
		if err := json.Unmarshal(raw, &back); err != nil || back != a {
			t.Fatalf("JSON round trip %s: %v (%v)", raw, back, err)
		}
	})
}

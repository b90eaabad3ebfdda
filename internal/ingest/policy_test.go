package ingest

import (
	"net/netip"
	"strings"
	"testing"
)

func TestPolicyAdmit(t *testing.T) {
	var nilPolicy *Policy
	if !nilPolicy.Admit(netip.MustParseAddr("10.0.0.1")) {
		t.Error("nil policy rejected an address")
	}

	p := &Policy{
		AlwaysInclude: []netip.Prefix{netip.MustParsePrefix("10.1.0.0/16")},
		NeverInclude: []netip.Prefix{
			netip.MustParsePrefix("10.0.0.0/8"),
			netip.MustParsePrefix("2001:db8::/32"),
		},
	}
	cases := []struct {
		addr string
		want bool
	}{
		{"10.1.2.3", true},  // always-include overrides never-include
		{"10.2.2.3", false}, // never-include
		{"192.0.2.1", true}, // matches nothing: admitted
		{"2001:db8::1", false},
		{"2001:db9::1", true},
		{"::ffff:10.2.2.3", false}, // 4-in-6 mapped address unmaps first
	}
	for _, c := range cases {
		if got := p.Admit(netip.MustParseAddr(c.addr)); got != c.want {
			t.Errorf("Admit(%s) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	p, err := ParsePolicy(strings.NewReader(
		`{"always_include": ["100.64.0.0/10"], "never_include": ["10.0.0.5/8", "fc00::/7"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.AlwaysInclude) != 1 || len(p.NeverInclude) != 2 {
		t.Fatalf("policy = %+v", p)
	}
	// Prefixes are canonicalized (masked): 10.0.0.5/8 -> 10.0.0.0/8.
	if got := p.NeverInclude[0].String(); got != "10.0.0.0/8" {
		t.Errorf("never_include[0] = %s", got)
	}
	if !p.Admit(netip.MustParseAddr("100.70.0.1")) || p.Admit(netip.MustParseAddr("10.9.9.9")) {
		t.Error("parsed policy misbehaves")
	}

	for _, bad := range []string{
		`{"always_include": ["not-a-prefix"]}`,
		`{"unknown_key": []}`,
		`{`,
	} {
		if _, err := ParsePolicy(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}

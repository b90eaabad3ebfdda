package rdns

import (
	"testing"

	"cellspot/internal/asn"
	"cellspot/internal/netaddr"
	"cellspot/internal/world"
)

func TestTableBasics(t *testing.T) {
	tb := NewTable()
	b := netaddr.V4Block(10, 1, 2)
	tb.Add(b, "pool-0.mobile.example")
	name, ok := tb.LookupBlock(b)
	if !ok || name != "pool-0.mobile.example" {
		t.Errorf("LookupBlock = %q,%v", name, ok)
	}
	if _, ok := tb.LookupBlock(netaddr.V4Block(10, 1, 3)); ok {
		t.Error("LookupBlock matched the wrong block")
	}
	if _, ok := tb.LookupBlock(netaddr.V4Block(9, 9, 9)); ok {
		t.Error("LookupBlock invented a name")
	}
}

func TestLooksLikeProxy(t *testing.T) {
	cases := map[string]bool{
		"proxy-3.mobileproxy-1.example":        true,
		"google-proxy-64-233-172-0.example":    true,
		"egress-1.mobilevpn-2-vpn.example":     true,
		"vm-9.compute.cloudhost-4.example":     true,
		"pool-7.mobile.mobilenet-us-1.example": false,
		"dyn-11.fixednet-de-2.example":         false,
		"":                                     false,
	}
	for name, want := range cases {
		if got := LooksLikeProxy(name); got != want {
			t.Errorf("LooksLikeProxy(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestFromWorldAndCorroborate(t *testing.T) {
	cfg := world.DefaultConfig()
	cfg.Scale = 0.002
	w, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := FromWorld(w)
	if len(tb.names) == 0 {
		t.Fatal("empty PTR table")
	}

	// "Detect" ground truth: every web-active block of proxies and of one
	// real operator, to exercise both corroboration outcomes.
	detected := make(netaddr.Set)
	var proxyASN, cellASN uint32
	for _, op := range w.Operators {
		isProxy := op.AS.Role == asn.RoleProxyService || op.AS.Role == asn.RoleVPNService ||
			op.AS.Role == asn.RoleCloudHosting
		if isProxy && proxyASN == 0 {
			proxyASN = op.AS.Number
		}
		if op.AS.Role == asn.RoleDedicatedCellular && cellASN == 0 && len(op.Blocks) > 3 {
			cellASN = op.AS.Number
		}
		if op.AS.Number == proxyASN || op.AS.Number == cellASN {
			for _, b := range op.Blocks {
				if b.WebActive {
					detected.Add(b.Block)
				}
			}
		}
	}
	if proxyASN == 0 || cellASN == 0 {
		t.Fatal("fixture roles missing")
	}
	asOf := func(b netaddr.Block) (uint32, bool) {
		bi := w.BlockIndex[b]
		if bi == nil {
			return 0, false
		}
		return bi.ASN, true
	}
	cor := Corroborate(detected, tb, asOf)
	p := cor[proxyASN]
	if p == nil || !p.ProxySuspect() {
		t.Errorf("proxy AS not flagged: %+v", p)
	}
	c := cor[cellASN]
	if c == nil || c.ProxySuspect() {
		t.Errorf("genuine cellular AS flagged as proxy: %+v", c)
	}
	if c.Checked == 0 {
		t.Error("cellular AS blocks had no PTR coverage")
	}
}

func TestCorroborationEdge(t *testing.T) {
	if (Corroboration{}).ProxySuspect() {
		t.Error("empty corroboration flagged")
	}
	if !(Corroboration{Checked: 3, Proxy: 2}).ProxySuspect() {
		t.Error("majority-proxy not flagged")
	}
	if (Corroboration{Checked: 4, Proxy: 2}).ProxySuspect() {
		t.Error("exact half flagged")
	}
}

func TestCorroborateSkipsUnmapped(t *testing.T) {
	tb := NewTable()
	b := netaddr.V4Block(1, 2, 3)
	tb.Add(b, "proxy-1.x.example")
	out := Corroborate(netaddr.NewSet(b), tb, func(netaddr.Block) (uint32, bool) { return 0, false })
	if len(out) != 0 {
		t.Error("unmapped block corroborated")
	}
}

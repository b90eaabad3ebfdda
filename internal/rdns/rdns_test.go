package rdns

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cellspot/internal/asn"
	"cellspot/internal/beacon"
	"cellspot/internal/classify"
	"cellspot/internal/netaddr"
	"cellspot/internal/world"
)

// Table maps blocks to PTR names, filled for a whole world at once by
// FromWorld: the former production form of Names, kept as its oracle.
type Table struct {
	names map[netaddr.Block]string
}

// NewTable creates an empty PTR table.
func NewTable() *Table {
	return &Table{names: make(map[netaddr.Block]string)}
}

// Add registers a block's PTR name.
func (t *Table) Add(b netaddr.Block, name string) {
	t.names[b] = name
}

// LookupBlock returns the block's PTR name.
func (t *Table) LookupBlock(b netaddr.Block) (string, bool) {
	name, ok := t.names[b]
	return name, ok
}

// FromWorld names every web-active block of every operator that
// publishes PTRs, with the block's index in its operator's block list in
// the name's slot.
func FromWorld(w *world.World) *Table {
	t := NewTable()
	for _, op := range w.Operators {
		pattern := ptrPattern(op.AS)
		if pattern == "" {
			continue
		}
		for i, b := range op.Blocks {
			if !b.WebActive {
				continue
			}
			t.Add(b.Block, fmt.Sprintf(pattern, i))
		}
	}
	return t
}

// ptrPattern returns the operator's PTR naming convention with one %d slot.
func ptrPattern(a *asn.AS) string {
	base := strings.ToLower(strings.ReplaceAll(a.Name, " ", "-"))
	switch a.Role {
	case asn.RoleProxyService:
		return "proxy-%d." + base + ".example"
	case asn.RoleVPNService:
		return "egress-%d." + base + "-vpn.example"
	case asn.RoleCloudHosting:
		return "vm-%d.compute." + base + ".example"
	case asn.RoleDedicatedCellular, asn.RoleMixedOperator:
		return "pool-%d.mobile." + base + ".example"
	case asn.RoleFixedISP:
		return "dyn-%d." + base + ".example"
	default:
		return ""
	}
}

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
	var cells []netaddr.Block
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
					cells = append(cells, b.Block)
				}
			}
		}
	}
	detected := netaddr.NewSet(cells...)
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
	cor := Corroborate(detected, tb.LookupBlock, asOf)
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
	out := Corroborate(netaddr.NewSet(b), tb.LookupBlock, func(netaddr.Block) (uint32, bool) { return 0, false })
	if len(out) != 0 {
		t.Error("unmapped block corroborated")
	}
}

// label spells a block the way Names fills a name's slot, computed here
// from the block's address rather than its key.
func label(b netaddr.Block) string {
	a := b.Addr()
	if b.IsV6() {
		x := a.As16()
		return fmt.Sprintf("%x-%x-%x", uint16(x[0])<<8|uint16(x[1]), uint16(x[2])<<8|uint16(x[3]), uint16(x[4])<<8|uint16(x[5]))
	}
	x := a.As4()
	return fmt.Sprintf("%d-%d-%d", x[0], x[1], x[2])
}

// TestCorroborateMatchesTable compares the on-demand names with the
// whole-world Table for seeds 1–3 at Scale 0.005. Each block's name keeps
// the Table's convention around its slot, which now holds the block's
// address instead of its index in the operator's block list, and the
// same blocks are named. Corroboration reads only the convention, so it
// must come out equal over the detected set and over every world block.
func TestCorroborateMatchesTable(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := world.DefaultConfig()
		cfg.Seed = seed
		cfg.Scale = 0.005
		w, err := world.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tb, names := FromWorld(w), Names(w)
		named := 0
		for _, bi := range w.Blocks {
			old, ok := tb.LookupBlock(bi.Block)
			got, gotOK := names(bi.Block)
			if ok != gotOK {
				t.Fatalf("seed %d %v: named %v, Table named %v", seed, bi.Block, gotOK, ok)
			}
			if !ok {
				continue
			}
			named++
			head := old[:strings.IndexByte(old, '-')+1]
			tail := strings.TrimLeft(old[len(head):], "0123456789")
			if want := head + label(bi.Block) + tail; got != want {
				t.Fatalf("seed %d %v: name %q, want %q (Table: %q)", seed, bi.Block, got, want, old)
			}
		}
		if _, ok := names(netaddr.V4Block(255, 255, 255)); ok {
			t.Errorf("seed %d: a block outside the world was named", seed)
		}
		asOf := func(b netaddr.Block) (uint32, bool) {
			bi := w.BlockIndex[b]
			if bi == nil {
				return 0, false
			}
			return bi.ASN, true
		}
		agg, err := beacon.Generate(w, beacon.DefaultGenConfig())
		if err != nil {
			t.Fatal(err)
		}
		cls, err := classify.New(classify.DefaultThreshold)
		if err != nil {
			t.Fatal(err)
		}
		blocks := make([]netaddr.Block, len(w.Blocks))
		for i, bi := range w.Blocks {
			blocks[i] = bi.Block
		}
		all := netaddr.NewSet(blocks...)
		suspects := 0
		for name, detected := range map[string]netaddr.Set{"detected": cls.Classify(agg), "all blocks": all} {
			got, want := Corroborate(detected, names, asOf), Corroborate(detected, tb.LookupBlock, asOf)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %s: Corroborate differs from the Table's", seed, name)
			}
			for _, c := range want {
				if c.ProxySuspect() {
					suspects++
				}
			}
		}
		if named == 0 || suspects == 0 {
			t.Fatalf("seed %d: %d named blocks, %d proxy suspects: too little to compare", seed, named, suspects)
		}
	}
}

// Package rdns models the reverse-DNS corroboration step of the paper's §5:
// the authors confirmed straw-man false positives by looking at PTR records
// — Google's proxy addresses resolve to google-proxy-*.google.com, Opera
// Mini's to *.opera-mini.net. This package provides a PTR table populated
// from the synthetic world and pattern heuristics that flag proxy/VPN/cloud
// egress space, giving the AS filter an independent second signal.
package rdns

import (
	"fmt"
	"strings"

	"cellspot/internal/asn"
	"cellspot/internal/netaddr"
	"cellspot/internal/world"
)

// Table maps blocks to their representative PTR name suffixes. Real reverse
// zones are per-address; per-block granularity matches everything else in
// the reproduction.
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

// FromWorld synthesizes a PTR table for a world: proxy services carry
// telltale proxy names, clouds and VPN egress their own conventions, access
// networks generic pool names. Coverage is deliberately partial (~those
// blocks a CDN would bother resolving: anything with beacon activity).
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
		return "" // enterprises and content rarely publish useful PTRs
	}
}

// proxyMarkers are the PTR substrings that betray connection-terminating
// infrastructure (the paper's google-proxy / opera-mini observation).
var proxyMarkers = []string{"proxy", "-vpn.", "compute.", "cache.", "cdn."}

// LooksLikeProxy reports whether a PTR name suggests proxy/cloud/VPN
// egress rather than subscriber space.
func LooksLikeProxy(name string) bool {
	lower := strings.ToLower(name)
	for _, m := range proxyMarkers {
		if strings.Contains(lower, m) {
			return true
		}
	}
	return false
}

// Corroboration is the outcome of checking one AS's detected cellular
// blocks against reverse DNS.
type Corroboration struct {
	ASN     uint32
	Checked int // detected cellular blocks with a PTR name
	Proxy   int // of those, names that look like proxy egress
}

// ProxySuspect reports whether a majority of the AS's named blocks look
// like proxy infrastructure.
func (c Corroboration) ProxySuspect() bool {
	return c.Checked > 0 && c.Proxy*2 > c.Checked
}

// Corroborate checks every AS's detected cellular blocks against the PTR
// table, reproducing the paper's manual investigation as a mechanical
// signal. asOf maps blocks to ASes.
func Corroborate(detected netaddr.Set, t *Table, asOf func(netaddr.Block) (uint32, bool)) map[uint32]*Corroboration {
	out := make(map[uint32]*Corroboration)
	for b := range detected {
		a, ok := asOf(b)
		if !ok {
			continue
		}
		name, ok := t.LookupBlock(b)
		if !ok {
			continue
		}
		c := out[a]
		if c == nil {
			c = &Corroboration{ASN: a}
			out[a] = c
		}
		c.Checked++
		if LooksLikeProxy(name) {
			c.Proxy++
		}
	}
	return out
}

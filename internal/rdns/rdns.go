// Package rdns models the reverse-DNS corroboration step of the paper's §5:
// the authors confirmed straw-man false positives by looking at PTR records
// — Google's proxy addresses resolve to google-proxy-*.google.com, Opera
// Mini's to *.opera-mini.net. This package derives PTR names from the
// synthetic world and applies pattern heuristics that flag proxy/VPN/cloud
// egress space, giving the AS filter an independent second signal.
package rdns

import (
	"strconv"
	"strings"

	"cellspot/internal/asn"
	"cellspot/internal/netaddr"
	"cellspot/internal/world"
)

// Names returns the world's reverse DNS as a per-block lookup: proxy
// services carry telltale proxy names, clouds and VPN egress their own
// conventions, access networks generic pool names. Coverage is
// deliberately partial (~those blocks a CDN would bother resolving:
// anything with beacon activity). Real reverse zones are per-address;
// per-block granularity matches everything else in the reproduction. A
// name is derived when asked for, from the block's address and its
// operator's convention, so a caller pays only for the blocks it looks
// up. The lookup is safe for concurrent use.
func Names(w *world.World) func(netaddr.Block) (string, bool) {
	conv := make(map[uint32]convention, len(w.Operators))
	for _, op := range w.Operators {
		if c, ok := conventionOf(op.AS); ok {
			conv[op.AS.Number] = c
		}
	}
	return func(b netaddr.Block) (string, bool) {
		bi := w.Block(b)
		if bi == nil || !bi.WebActive {
			return "", false
		}
		c, ok := conv[bi.ASN]
		if !ok {
			return "", false
		}
		name := make([]byte, 0, len(c.head)+len("ffff-ffff-ffff")+len(c.tail))
		name = append(name, c.head...)
		name = appendLabel(name, b)
		return string(append(name, c.tail...)), true
	}
}

// convention is an operator's PTR naming scheme: a block's name is head,
// the block's address label, then tail.
type convention struct{ head, tail string }

// conventionOf returns the AS's PTR naming convention; ok is false for
// ASes that publish none.
func conventionOf(a *asn.AS) (convention, bool) {
	base := strings.ToLower(strings.ReplaceAll(a.Name, " ", "-"))
	switch a.Role {
	case asn.RoleProxyService:
		return convention{"proxy-", "." + base + ".example"}, true
	case asn.RoleVPNService:
		return convention{"egress-", "." + base + "-vpn.example"}, true
	case asn.RoleCloudHosting:
		return convention{"vm-", ".compute." + base + ".example"}, true
	case asn.RoleDedicatedCellular, asn.RoleMixedOperator:
		return convention{"pool-", ".mobile." + base + ".example"}, true
	case asn.RoleFixedISP:
		return convention{"dyn-", "." + base + ".example"}, true
	default:
		return convention{}, false // enterprises and content rarely publish useful PTRs
	}
}

// appendLabel appends the block's network bits as three dash-separated
// groups, the way access networks spell an address into a PTR name: the
// /24's three octets in decimal (1.2.3.0/24 → "1-2-3"), the /48's three
// 16-bit groups in hex (2001:db8:a::/48 → "2001-db8-a").
func appendLabel(dst []byte, b netaddr.Block) []byte {
	width, base := uint(8), 10
	if b.IsV6() {
		width, base = 16, 16
	}
	k := b.Key()
	for g := 2; g >= 0; g-- {
		dst = strconv.AppendUint(dst, (k>>(uint(g)*width))&(1<<width-1), base)
		if g > 0 {
			dst = append(dst, '-')
		}
	}
	return dst
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

// Corroborate checks every AS's detected cellular blocks against reverse
// DNS, reproducing the paper's manual investigation as a mechanical
// signal. ptr names a block (see Names); asOf maps blocks to ASes.
func Corroborate(detected netaddr.Set, ptr func(netaddr.Block) (string, bool), asOf func(netaddr.Block) (uint32, bool)) map[uint32]*Corroboration {
	out := make(map[uint32]*Corroboration)
	for b := range detected.All() {
		a, ok := asOf(b)
		if !ok {
			continue
		}
		name, ok := ptr(b)
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

package classify

import (
	"cellspot/internal/beacon"
	"cellspot/internal/netaddr"
	"cellspot/internal/netinfo"
)

// RATShares sums the per-RAT cellular label counts over a set of blocks
// and returns each radio generation's share of the RAT-labeled hits,
// indexed by netinfo.RAT. ok is false when no label in the set carries a
// radio generation — legacy logs predating the RAT column — in which case
// the map artifact omits its RAT column for the covering prefix and the
// history index serves the entry in legacy form.
func RATShares(agg *beacon.Aggregate, blocks []netaddr.Block) (shares [netinfo.NumRATs]float64, ok bool) {
	if agg == nil {
		return shares, false
	}
	var c3, c4, c5 int
	for _, b := range blocks {
		if c, ok := agg.Get(b); ok {
			c3 += c.Cell3G
			c4 += c.Cell4G
			c5 += c.Cell5G
		}
	}
	total := c3 + c4 + c5
	if total == 0 {
		return shares, false
	}
	shares[netinfo.RAT3G] = float64(c3) / float64(total)
	shares[netinfo.RAT4G] = float64(c4) / float64(total)
	shares[netinfo.RAT5G] = float64(c5) / float64(total)
	return shares, true
}

// Package macro computes the paper's macroscopic view (§7): per-country and
// per-continent cellular demand statistics (Table 8), the country-level
// distribution of global cellular demand (Fig 11), and the demand-vs-
// cellular-fraction scatter (Fig 12), plus the subnet census rollups of
// Table 4.
//
// Demand from countries flagged ExcludeDemand (China) is tracked but left
// out of all fraction and share computations, as in the paper.
package macro

import (
	"sort"

	"cellspot/internal/aschar"
	"cellspot/internal/beacon"
	"cellspot/internal/geo"
	"cellspot/internal/netaddr"
)

// CountryStats aggregates one country's measured footprint.
type CountryStats struct {
	Country *geo.Country

	TotalDU float64 // platform demand
	CellDU  float64 // demand of cellular-labeled blocks

	Active24, Active48 int // blocks observed in BEACON
	Cell24, Cell48     int // blocks labeled cellular
}

// CellFrac returns the fraction of the country's demand that is cellular.
func (c *CountryStats) CellFrac() float64 {
	if c.TotalDU == 0 {
		return 0
	}
	return c.CellDU / c.TotalDU
}

// ContinentStats aggregates a continent.
type ContinentStats struct {
	Continent geo.Continent

	TotalDU, CellDU    float64
	Active24, Active48 int
	Cell24, Cell48     int
	SubscribersM       float64 // ITU-style subscriptions of included countries
}

// CellFrac returns the continent's cellular demand fraction.
func (c *ContinentStats) CellFrac() float64 {
	if c.TotalDU == 0 {
		return 0
	}
	return c.CellDU / c.TotalDU
}

// DemandPerKSubscribers returns cellular demand units per thousand
// subscribers — Table 8's final column (cellular demand as a share of
// global demand divided by subscribers).
func (c *ContinentStats) DemandPerKSubscribers() float64 {
	if c.SubscribersM == 0 {
		return 0
	}
	return c.CellDU / (c.SubscribersM * 1000)
}

// Analysis is the full macroscopic rollup.
type Analysis struct {
	ByCountry   map[string]*CountryStats
	ByContinent map[geo.Continent]*ContinentStats

	// GlobalDU and GlobalCellDU exclude ExcludeDemand countries.
	GlobalDU, GlobalCellDU float64

	// ExcludedDU is the demand attributed to excluded countries.
	ExcludedDU float64
}

// Inputs bundles the measurement data for the macroscopic rollup.
type Inputs struct {
	// Rollup carries DEMAND and the BGP-style block→AS mapping, with each
	// demand block's AS already resolved. Required; build it with a nil
	// dataset for a rollup without demand.
	Rollup   *aschar.Rollup
	Beacon   *beacon.Aggregate
	Detected netaddr.Set
	// CountryOf maps an AS to its registered country (whois-style).
	CountryOf func(uint32) (string, bool)
	Countries *geo.DB

	// CellularASes, when non-nil, restricts cellular demand to detected
	// blocks inside identified cellular ASes — the paper's AS filtering
	// exists precisely to keep proxy/cloud false positives out of the
	// demand analysis. Nil counts every detected block.
	CellularASes map[uint32]bool
}

// Build computes the macroscopic analysis.
func Build(in Inputs) *Analysis {
	a := &Analysis{
		ByCountry:   make(map[string]*CountryStats),
		ByContinent: make(map[geo.Continent]*ContinentStats),
	}
	for _, ct := range geo.Continents() {
		a.ByContinent[ct] = &ContinentStats{Continent: ct}
	}
	for _, c := range in.Countries.All() {
		a.ByCountry[c.Code] = &CountryStats{Country: c}
		if !c.ExcludeDemand {
			a.ByContinent[c.Continent].SubscribersM += c.SubscribersM
		}
	}

	// Many blocks share an AS, and the whois, country and continent
	// lookups depend on the AS alone, so each AS resolves once per call.
	resolve := func(asNum uint32) asRow {
		var r asRow
		if c, known := countryOfAS(in, asNum); known {
			r = asRow{
				country:   a.ByCountry[c.Code],
				continent: a.ByContinent[c.Continent],
				cellAS:    in.CellularASes == nil || in.CellularASes[asNum],
			}
		}
		return r
	}
	// Every AS of the rollup has demand rows, so each one is resolved up
	// front; beacon-only ASes resolve on first sight.
	memo := make([]asRow, in.Rollup.ASes())
	for i := range memo {
		memo[i] = resolve(in.Rollup.ASN(i))
	}
	more := make(map[uint32]asRow)
	rowOf := func(asNum uint32, i int) asRow {
		if i >= 0 {
			return memo[i]
		}
		r, ok := more[asNum]
		if !ok {
			r = resolve(asNum)
			more[asNum] = r
		}
		return r
	}
	detected := in.Detected.Ascending()
	in.Rollup.EachRow(func(b netaddr.Block, du float64, i int) {
		if i < 0 {
			return
		}
		r := memo[i]
		if r.country == nil {
			return
		}
		r.country.TotalDU += du
		cell := r.cellAS && detected(b)
		if cell {
			r.country.CellDU += du
		}
		if r.country.Country.ExcludeDemand {
			a.ExcludedDU += du
			return
		}
		r.continent.TotalDU += du
		a.GlobalDU += du
		if cell {
			r.continent.CellDU += du
			a.GlobalCellDU += du
		}
	})
	if in.Beacon != nil {
		detected := in.Detected.Ascending()
		in.Rollup.ResolveBeacon(in.Beacon, func(b netaddr.Block, asNum uint32, i int) {
			r := rowOf(asNum, i)
			if r.country == nil {
				return
			}
			cs, cont := r.country, r.continent
			cell := r.cellAS && detected(b)
			if b.IsV6() {
				cs.Active48++
				cont.Active48++
				if cell {
					cs.Cell48++
					cont.Cell48++
				}
			} else {
				cs.Active24++
				cont.Active24++
				if cell {
					cs.Cell24++
					cont.Cell24++
				}
			}
		})
	}
	return a
}

// asRow is what Build needs of one AS: the rows its blocks add to and
// whether its detected blocks count as cellular. A nil country marks an
// AS with no known country, whose blocks Build skips.
type asRow struct {
	country   *CountryStats
	continent *ContinentStats
	cellAS    bool
}

// countryOfAS resolves an AS number to its country profile.
func countryOfAS(in Inputs, asNum uint32) (*geo.Country, bool) {
	cc, ok := in.CountryOf(asNum)
	if !ok {
		return nil, false
	}
	return in.Countries.Lookup(cc)
}

// CellShareOfGlobal returns the country's share of global cellular demand
// (Fig 11's y axis); 0 for excluded countries.
func (a *Analysis) CellShareOfGlobal(code string) float64 {
	cs := a.ByCountry[code]
	if cs == nil || cs.Country.ExcludeDemand || a.GlobalCellDU == 0 {
		return 0
	}
	return cs.CellDU / a.GlobalCellDU
}

// TopCountriesByCellDU returns up to n included countries of a continent
// ordered by descending cellular demand (Fig 11 panels). Pass a negative n
// for all.
func (a *Analysis) TopCountriesByCellDU(ct geo.Continent, n int) []*CountryStats {
	var out []*CountryStats
	for _, cs := range a.ByCountry {
		if cs.Country.Continent == ct && !cs.Country.ExcludeDemand {
			out = append(out, cs)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CellDU != out[j].CellDU {
			return out[i].CellDU > out[j].CellDU
		}
		return out[i].Country.Code < out[j].Country.Code
	})
	if n >= 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// ScatterPoint is one country's position in Fig 12: x the cellular demand
// ratio (CFD), y the normalized cellular demand (DU, log scale in the
// paper's plot).
type ScatterPoint struct {
	Code   string
	CFD    float64
	CellDU float64
}

// Scatter returns Fig 12's points for all included countries with demand.
func (a *Analysis) Scatter() []ScatterPoint {
	var out []ScatterPoint
	for code, cs := range a.ByCountry {
		if cs.Country.ExcludeDemand || cs.TotalDU == 0 {
			continue
		}
		out = append(out, ScatterPoint{Code: code, CFD: cs.CellFrac(), CellDU: cs.CellDU})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// GlobalCellFrac returns the headline number: the fraction of global demand
// that is cellular (paper: 16.2%).
func (a *Analysis) GlobalCellFrac() float64 {
	if a.GlobalDU == 0 {
		return 0
	}
	return a.GlobalCellDU / a.GlobalDU
}

// TopCountryShares returns the combined global-cellular-demand share of the
// top n countries (paper: top 5 = 55.7%, top 20 = 80%).
func (a *Analysis) TopCountryShares(n int) float64 {
	var shares []float64
	for code := range a.ByCountry {
		if s := a.CellShareOfGlobal(code); s > 0 {
			shares = append(shares, s)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(shares)))
	sum := 0.0
	for i := 0; i < n && i < len(shares); i++ {
		sum += shares[i]
	}
	return sum
}

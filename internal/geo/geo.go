// Package geo models the geographic frame of the study: continents,
// countries, and the per-country profile parameters that drive the synthetic
// world generator (demand weight, cellular fraction, mobile subscriptions,
// operator structure, IPv6 and public-DNS adoption).
//
// The paper observes clients in 245 countries; this reproduction encodes a
// curated table of the ~95 countries that dominate demand — including every
// country the paper names in a table or figure — plus per-continent ITU-style
// mobile-subscription totals (Table 8). Profile values are calibrated so the
// world generator lands near the paper's reported shapes; they are inputs to
// the simulation, never read by the measurement pipeline, which must recover
// them from logs alone.
package geo

import (
	"fmt"
	"sort"
)

// Continent enumerates the six continents used in the paper's rollups.
type Continent uint8

const (
	Africa Continent = iota
	Asia
	Europe
	NorthAmerica
	Oceania
	SouthAmerica
	numContinents
)

// Continents lists all continents in the paper's table order
// (AF, AS, EU, NA, OC, SA).
func Continents() []Continent {
	return []Continent{Africa, Asia, Europe, NorthAmerica, Oceania, SouthAmerica}
}

// String returns the two-letter continent code used in the paper's tables.
func (c Continent) String() string {
	switch c {
	case Africa:
		return "AF"
	case Asia:
		return "AS"
	case Europe:
		return "EU"
	case NorthAmerica:
		return "NA"
	case Oceania:
		return "OC"
	case SouthAmerica:
		return "SA"
	}
	return fmt.Sprintf("Continent(%d)", uint8(c))
}

// Name returns the full continent name.
func (c Continent) Name() string {
	switch c {
	case Africa:
		return "Africa"
	case Asia:
		return "Asia"
	case Europe:
		return "Europe"
	case NorthAmerica:
		return "North America"
	case Oceania:
		return "Oceania"
	case SouthAmerica:
		return "South America"
	}
	return c.String()
}

// Country is a country profile: identity plus the calibration parameters the
// world generator consumes.
type Country struct {
	Code      string // ISO 3166-1 alpha-2
	Name      string // human-readable name
	Continent Continent

	// DemandShare is the country's share of global CDN request demand,
	// in percent of the global total. Shares are renormalized across the
	// active country set before use, so they need only be proportional.
	DemandShare float64

	// CellFrac is the fraction of the country's demand carried over
	// cellular access links (the paper's Fig 12 x-axis).
	CellFrac float64

	// SubscribersM is the country's mobile-cellular subscriptions in
	// millions (ITU-style; includes voice-only, as in the paper).
	SubscribersM float64

	// CellASes is the number of cellular access ASes in the country
	// (dedicated + mixed); Table 6 reports 2–4.5 per country on average
	// with large-country outliers (40 in the US, 29 in Russia, ...).
	CellASes int

	// MixedShare is the fraction of the country's cellular ASes that are
	// mixed (also housing fixed-line customers).
	MixedShare float64

	// IPv6 reports whether any of the country's cellular operators deploy
	// IPv6; the paper finds 52 of 668 cellular ASes, in 24 countries.
	IPv6 bool

	// IPv6ASes is the number of cellular ASes deploying IPv6 (<= CellASes).
	IPv6ASes int

	// PublicDNSShare is the fraction of the country's cellular demand
	// resolved through public DNS services (Fig 10).
	PublicDNSShare float64

	// ExcludeDemand marks countries whose demand the paper's macroscopic
	// analysis excludes (China: the authors did not trust its demand
	// values). Such countries still generate traffic and appear in the AS
	// census, but macro rollups skip them.
	ExcludeDemand bool
}

// DB is an immutable country database.
type DB struct {
	byCode    map[string]*Country
	countries []*Country // sorted by code
}

// NewDB builds a database from countries, rejecting duplicates and
// out-of-range parameters.
func NewDB(countries []Country) (*DB, error) {
	db := &DB{byCode: make(map[string]*Country, len(countries))}
	for i := range countries {
		c := countries[i]
		if len(c.Code) != 2 {
			return nil, fmt.Errorf("geo: country %q: code must be 2 letters", c.Code)
		}
		if _, dup := db.byCode[c.Code]; dup {
			return nil, fmt.Errorf("geo: duplicate country %q", c.Code)
		}
		if c.CellFrac < 0 || c.CellFrac > 1 {
			return nil, fmt.Errorf("geo: country %q: CellFrac %g out of [0,1]", c.Code, c.CellFrac)
		}
		if c.DemandShare < 0 {
			return nil, fmt.Errorf("geo: country %q: negative DemandShare", c.Code)
		}
		if c.MixedShare < 0 || c.MixedShare > 1 {
			return nil, fmt.Errorf("geo: country %q: MixedShare %g out of [0,1]", c.Code, c.MixedShare)
		}
		if c.PublicDNSShare < 0 || c.PublicDNSShare > 1 {
			return nil, fmt.Errorf("geo: country %q: PublicDNSShare %g out of [0,1]", c.Code, c.PublicDNSShare)
		}
		if c.IPv6ASes > c.CellASes {
			return nil, fmt.Errorf("geo: country %q: IPv6ASes %d > CellASes %d", c.Code, c.IPv6ASes, c.CellASes)
		}
		if c.Continent >= numContinents {
			return nil, fmt.Errorf("geo: country %q: bad continent", c.Code)
		}
		cp := c
		db.byCode[c.Code] = &cp
		db.countries = append(db.countries, &cp)
	}
	sort.Slice(db.countries, func(i, j int) bool { return db.countries[i].Code < db.countries[j].Code })
	return db, nil
}

// Lookup returns the country with the given ISO code.
func (db *DB) Lookup(code string) (*Country, bool) {
	c, ok := db.byCode[code]
	return c, ok
}

// All returns every country ordered by ISO code. The slice is shared;
// callers must not mutate it.
func (db *DB) All() []*Country { return db.countries }

// ByContinent returns the countries of a continent ordered by ISO code.
func (db *DB) ByContinent(ct Continent) []*Country {
	var out []*Country
	for _, c := range db.countries {
		if c.Continent == ct {
			out = append(out, c)
		}
	}
	return out
}

// TotalDemandShare sums the (unnormalized) demand shares.
func (db *DB) TotalDemandShare() float64 {
	s := 0.0
	for _, c := range db.countries {
		s += c.DemandShare
	}
	return s
}

package macro

import (
	"math"
	"testing"

	"cellspot/internal/aschar"
	"cellspot/internal/beacon"
	"cellspot/internal/classify"
	"cellspot/internal/demand"
	"cellspot/internal/geo"
	"cellspot/internal/netaddr"
	"cellspot/internal/world"
)

// The fixture's blocks: one cellular and one fixed block per country.
var (
	usCell   = netaddr.V4Block(10, 0, 0)
	usFixed  = netaddr.V4Block(10, 0, 1)
	cnCell   = netaddr.V4Block(20, 0, 0)
	jpCellV6 = netaddr.V6Block(0x200100000001)
	jpFixed  = netaddr.V4Block(30, 0, 0)
)

// fixtureASOf is the fixture's block→AS mapping.
func fixtureASOf(b netaddr.Block) (uint32, bool) {
	switch b {
	case usCell, usFixed:
		return 1, true
	case cnCell:
		return 2, true
	case jpCellV6, jpFixed:
		return 3, true
	}
	return 0, false
}

// fixtureDemand is the fixture's DEMAND.
func fixtureDemand(t *testing.T) *demand.Dataset {
	t.Helper()
	ds, err := demand.NewDataset(map[netaddr.Block]float64{
		usCell: 20, usFixed: 60, cnCell: 10, jpCellV6: 5, jpFixed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// fixture: two countries (US included, CN excluded) with one cellular and
// one fixed block each.
func fixture(t *testing.T) Inputs {
	t.Helper()
	db, err := geo.NewDB([]geo.Country{
		{Code: "US", Name: "United States", Continent: geo.NorthAmerica, SubscribersM: 400, DemandShare: 10},
		{Code: "CN", Name: "China", Continent: geo.Asia, SubscribersM: 1300, DemandShare: 5, ExcludeDemand: true},
		{Code: "JP", Name: "Japan", Continent: geo.Asia, SubscribersM: 160, DemandShare: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	agg := beacon.NewAggregate()
	for _, b := range []netaddr.Block{usCell, usFixed, cnCell, jpCellV6, jpFixed} {
		agg.Add(b, 100, 10, 0)
	}
	countryOf := func(a uint32) (string, bool) {
		switch a {
		case 1:
			return "US", true
		case 2:
			return "CN", true
		case 3:
			return "JP", true
		}
		return "", false
	}
	in := Inputs{
		Rollup:    aschar.NewRollup(fixtureDemand(t), fixtureASOf),
		Beacon:    agg,
		Detected:  netaddr.NewSet(usCell, cnCell, jpCellV6),
		CountryOf: countryOf,
		Countries: db,
	}
	return in
}

func TestBuildGlobalFractions(t *testing.T) {
	in := fixture(t)
	a := Build(in)
	// Included demand: US 80, JP 10 (of raw units; normalized to DU).
	// Included cellular: US 20, JP 5.
	if got := a.GlobalCellFrac(); math.Abs(got-25.0/90) > 1e-9 {
		t.Errorf("global cell frac = %g, want %g", got, 25.0/90)
	}
	// Excluded CN demand tracked separately.
	if a.ExcludedDU == 0 {
		t.Error("excluded demand not tracked")
	}
	total := a.GlobalDU + a.ExcludedDU
	if math.Abs(total-demand.TotalDU) > 1e-6 {
		t.Errorf("included+excluded = %g, want %g", total, demand.TotalDU)
	}
}

func TestBuildCountryAndContinent(t *testing.T) {
	in := fixture(t)
	a := Build(in)
	us := a.ByCountry["US"]
	if math.Abs(us.CellFrac()-0.25) > 1e-9 {
		t.Errorf("US cell frac = %g, want 0.25", us.CellFrac())
	}
	if us.Active24 != 2 || us.Cell24 != 1 || us.Active48 != 0 {
		t.Errorf("US census = %+v", us)
	}
	jp := a.ByCountry["JP"]
	if jp.Cell48 != 1 || jp.Active48 != 1 || jp.Active24 != 1 {
		t.Errorf("JP census = %+v", jp)
	}
	asia := a.ByContinent[geo.Asia]
	// CN excluded from demand but still counted in the census.
	if asia.Active24 != 2 {
		t.Errorf("Asia active24 = %d, want 2 (CN census included)", asia.Active24)
	}
	if math.Abs(asia.CellFrac()-0.5) > 1e-9 {
		t.Errorf("Asia cell frac = %g, want 0.5 (JP only)", asia.CellFrac())
	}
	if asia.SubscribersM != 160 {
		t.Errorf("Asia subscribers = %g, want 160 (CN excluded)", asia.SubscribersM)
	}
	na := a.ByContinent[geo.NorthAmerica]
	if na.SubscribersM != 400 {
		t.Errorf("NA subscribers = %g", na.SubscribersM)
	}
	if na.DemandPerKSubscribers() <= 0 {
		t.Error("NA demand per subscriber not positive")
	}
	if (&ContinentStats{}).DemandPerKSubscribers() != 0 {
		t.Error("zero-subscriber division")
	}
	if (&CountryStats{Country: us.Country}).CellFrac() != 0 {
		t.Error("zero-demand country CellFrac")
	}
}

func TestCellShareOfGlobal(t *testing.T) {
	in := fixture(t)
	a := Build(in)
	if got := a.CellShareOfGlobal("US"); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("US share = %g, want 0.8", got)
	}
	if got := a.CellShareOfGlobal("CN"); got != 0 {
		t.Errorf("excluded CN share = %g", got)
	}
	if got := a.CellShareOfGlobal("ZZ"); got != 0 {
		t.Errorf("unknown country share = %g", got)
	}
}

func TestTopCountries(t *testing.T) {
	in := fixture(t)
	a := Build(in)
	top := a.TopCountriesByCellDU(geo.Asia, 10)
	if len(top) != 1 || top[0].Country.Code != "JP" {
		t.Errorf("Asia top = %v (CN must be excluded)", top)
	}
	all := a.TopCountriesByCellDU(geo.NorthAmerica, -1)
	if len(all) != 1 || all[0].Country.Code != "US" {
		t.Errorf("NA top = %v", all)
	}
	if got := a.TopCountryShares(1); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("top-1 share = %g", got)
	}
	if got := a.TopCountryShares(10); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("top-10 share = %g, want 1", got)
	}
}

func TestScatter(t *testing.T) {
	in := fixture(t)
	a := Build(in)
	pts := a.Scatter()
	if len(pts) != 2 {
		t.Fatalf("scatter = %v", pts)
	}
	for _, p := range pts {
		if p.Code == "CN" {
			t.Error("excluded country in scatter")
		}
		if p.CFD < 0 || p.CFD > 1 || p.CellDU <= 0 {
			t.Errorf("bad point %+v", p)
		}
	}
	// Sorted by code.
	if pts[0].Code > pts[1].Code {
		t.Error("scatter not sorted")
	}
}

func TestBuildSkipsUnmapped(t *testing.T) {
	in := fixture(t)
	in.Rollup = aschar.NewRollup(fixtureDemand(t), func(netaddr.Block) (uint32, bool) { return 0, false })
	a := Build(in)
	if a.GlobalDU != 0 {
		t.Error("unmapped blocks contributed demand")
	}
	in2 := fixture(t)
	in2.CountryOf = func(uint32) (string, bool) { return "XX", true } // not in DB
	a2 := Build(in2)
	if a2.GlobalDU != 0 {
		t.Error("unknown countries contributed demand")
	}
}

func TestBuildNilDatasets(t *testing.T) {
	in := fixture(t)
	in.Rollup = aschar.NewRollup(nil, fixtureASOf)
	in.Beacon = nil
	a := Build(in)
	if a.GlobalDU != 0 || a.ByCountry["US"].Active24 != 0 {
		t.Error("nil datasets produced data")
	}
}

// oracleBuild is Build with every lookup made per block: asOf, CountryOf,
// Countries.Lookup, the country and continent rows and the cellular-AS
// check for each block of ds and of the beacon aggregate. Build reads
// each demand block's AS from in.Rollup and resolves each AS once; it
// must reproduce this bit for bit when in.Rollup is built over ds and
// asOf.
func oracleBuild(in Inputs, ds *demand.Dataset, asOf func(netaddr.Block) (uint32, bool)) *Analysis {
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
	isCell := func(b netaddr.Block, asNum uint32) bool {
		if !in.Detected.Has(b) {
			return false
		}
		return in.CellularASes == nil || in.CellularASes[asNum]
	}
	ds.Each(func(b netaddr.Block, du float64) {
		asNum, ok := asOf(b)
		if !ok {
			return
		}
		c, ok := countryOfAS(in, asNum)
		if !ok {
			return
		}
		cs := a.ByCountry[c.Code]
		cs.TotalDU += du
		cell := isCell(b, asNum)
		if cell {
			cs.CellDU += du
		}
		if c.ExcludeDemand {
			a.ExcludedDU += du
			return
		}
		cont := a.ByContinent[c.Continent]
		cont.TotalDU += du
		a.GlobalDU += du
		if cell {
			cont.CellDU += du
			a.GlobalCellDU += du
		}
	})
	for b := range in.Beacon.PerBlock {
		asNum, ok := asOf(b)
		if !ok {
			continue
		}
		c, ok := countryOfAS(in, asNum)
		if !ok {
			continue
		}
		cs, cont := a.ByCountry[c.Code], a.ByContinent[c.Continent]
		cell := isCell(b, asNum)
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
	}
	return a
}

// sameBits reports whether two floats have the same bit pattern.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// diffAnalysis reports every field of got that differs from want, floats
// compared by their bits.
func diffAnalysis(t *testing.T, name string, got, want *Analysis) {
	t.Helper()
	if !sameBits(got.GlobalDU, want.GlobalDU) || !sameBits(got.GlobalCellDU, want.GlobalCellDU) ||
		!sameBits(got.ExcludedDU, want.ExcludedDU) {
		t.Errorf("%s: globals %v/%v/%v, want %v/%v/%v", name,
			got.GlobalDU, got.GlobalCellDU, got.ExcludedDU, want.GlobalDU, want.GlobalCellDU, want.ExcludedDU)
	}
	if len(got.ByCountry) != len(want.ByCountry) {
		t.Errorf("%s: %d countries, want %d", name, len(got.ByCountry), len(want.ByCountry))
	}
	for code, w := range want.ByCountry {
		g := got.ByCountry[code]
		if g == nil {
			t.Errorf("%s: country %s missing", name, code)
			continue
		}
		if g.Country != w.Country || !sameBits(g.TotalDU, w.TotalDU) || !sameBits(g.CellDU, w.CellDU) ||
			g.Active24 != w.Active24 || g.Active48 != w.Active48 || g.Cell24 != w.Cell24 || g.Cell48 != w.Cell48 {
			t.Errorf("%s: country %s = %+v, want %+v", name, code, *g, *w)
		}
	}
	if len(got.ByContinent) != len(want.ByContinent) {
		t.Errorf("%s: %d continents, want %d", name, len(got.ByContinent), len(want.ByContinent))
	}
	for ct, w := range want.ByContinent {
		g := got.ByContinent[ct]
		if g == nil {
			t.Errorf("%s: continent %v missing", name, ct)
			continue
		}
		if g.Continent != w.Continent || !sameBits(g.TotalDU, w.TotalDU) || !sameBits(g.CellDU, w.CellDU) ||
			!sameBits(g.SubscribersM, w.SubscribersM) || g.Active24 != w.Active24 ||
			g.Active48 != w.Active48 || g.Cell24 != w.Cell24 || g.Cell48 != w.Cell48 {
			t.Errorf("%s: continent %v = %+v, want %+v", name, ct, *g, *w)
		}
	}
}

// hasRow reports whether b has recorded demand in ds.
func hasRow(ds *demand.Dataset, b netaddr.Block) bool {
	_, ok := ds.Row(b)
	return ok
}

// TestBuildMatchesPerBlockOracle runs Build and oracleBuild on a Scale-0.005
// world, with every detected block counted and with only the ASes that
// pass the paper's AS filter. Some blocks lose their AS and some ASes
// their country, so the memo's unknown rows are exercised too. DEMAND
// leaves out some blocks and every block of some ASes, so the beacon
// aggregate holds beacon-only blocks both of ASes the rollup indexes and
// of ASes it has never seen.
func TestBuildMatchesPerBlockOracle(t *testing.T) {
	wcfg := world.DefaultConfig()
	wcfg.Scale = 0.005
	w, err := world.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := beacon.Generate(w, beacon.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	full, err := demand.Generate(w, demand.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := make(map[netaddr.Block]float64, full.Blocks())
	full.Each(func(b netaddr.Block, du float64) {
		if b.Key()%11 != 0 && w.BlockIndex[b].ASN%7 != 0 {
			raw[b] = du
		}
	})
	ds, err := demand.NewDataset(raw)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := classify.New(classify.DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	detected := cls.Classify(agg)
	asOf := func(b netaddr.Block) (uint32, bool) {
		bi := w.BlockIndex[b]
		if bi == nil || b.Key()%17 == 0 {
			return 0, false
		}
		return bi.ASN, true
	}
	countryOf := func(a uint32) (string, bool) {
		as, ok := w.Registry.Lookup(a)
		switch {
		case !ok:
			return "", false
		case a%13 == 0:
			return "XX", true // not in the country table
		}
		return as.Country, true
	}
	ru := aschar.NewRollup(ds, asOf)
	var unmappedRows, indexedOnly, unindexed int
	ru.EachRow(func(_ netaddr.Block, _ float64, i int) {
		if i < 0 {
			unmappedRows++
		}
	})
	for b := range agg.PerBlock {
		if _, i, ok := ru.Resolve(b); ok && !hasRow(ds, b) {
			if i >= 0 {
				indexedOnly++
			} else {
				unindexed++
			}
		}
	}
	if unmappedRows == 0 || indexedOnly == 0 || unindexed == 0 {
		t.Fatalf("rollup covers too little: %d unmapped demand rows, %d beacon-only blocks of indexed ASes, %d of unindexed ones",
			unmappedRows, indexedOnly, unindexed)
	}
	stats := ru.Stats(detected, agg)
	fr := aschar.Filter(stats, aschar.DefaultRules(w.Snapshot))
	cellASes := make(map[uint32]bool, len(fr.AfterRule3))
	for _, a := range fr.AfterRule3 {
		cellASes[a] = true
	}
	if len(cellASes) == 0 {
		t.Fatal("no AS passed the filter; the restricted case would test nothing")
	}
	in := Inputs{
		Rollup: ru, Beacon: agg, Detected: detected,
		CountryOf: countryOf, Countries: w.Countries,
	}
	diffAnalysis(t, "all detected", Build(in), oracleBuild(in, ds, asOf))
	in.CellularASes = cellASes
	got, want := Build(in), oracleBuild(in, ds, asOf)
	diffAnalysis(t, "cellular ASes", got, want)
	if want.GlobalCellDU == 0 || want.ExcludedDU == 0 {
		t.Errorf("oracle reads GlobalCellDU %v, ExcludedDU %v: the world exercises too little", want.GlobalCellDU, want.ExcludedDU)
	}
}

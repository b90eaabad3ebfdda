package cellmap

import (
	"bytes"
	"math"
	"net/netip"
	"strings"
	"testing"

	"cellspot/internal/beacon"
	"cellspot/internal/demand"
	"cellspot/internal/netaddr"
)

func fixtureInputs(t *testing.T) Inputs {
	t.Helper()
	det := netaddr.NewSet(
		netaddr.V4Block(10, 0, 0), netaddr.V4Block(10, 0, 1), // AS1 -> /23
		netaddr.V4Block(10, 0, 4),       // AS1 lone
		netaddr.V4Block(20, 5, 0),       // AS2
		netaddr.V6Block(0x20010db80000), // AS2 v6
		netaddr.V4Block(99, 9, 9),       // unmapped: dropped
	)
	agg := beacon.NewAggregate()
	agg.Add(netaddr.V4Block(10, 0, 0), 100, 40, 38)
	agg.Add(netaddr.V4Block(10, 0, 1), 100, 10, 8)
	agg.Add(netaddr.V4Block(10, 0, 4), 100, 20, 19)
	agg.Add(netaddr.V4Block(20, 5, 0), 100, 30, 30)
	agg.Add(netaddr.V6Block(0x20010db80000), 100, 10, 9)
	ds, err := demand.NewDataset(map[netaddr.Block]float64{
		netaddr.V4Block(10, 0, 0):       40,
		netaddr.V4Block(10, 0, 1):       10,
		netaddr.V4Block(10, 0, 4):       20,
		netaddr.V4Block(20, 5, 0):       25,
		netaddr.V6Block(0x20010db80000): 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Inputs{
		Detected: det,
		Beacon:   agg,
		Demand:   ds,
		ASOf: func(b netaddr.Block) (uint32, bool) {
			switch {
			case b.Key()>>16 == 10 && !b.IsV6():
				return 1, true
			case b == netaddr.V4Block(20, 5, 0), b.IsV6():
				return 2, true
			}
			return 0, false
		},
		CountryOf: func(a uint32) (string, bool) {
			if a == 1 {
				return "DE", true
			}
			return "US", true
		},
	}
}

func TestBuild(t *testing.T) {
	m, err := Build(0.5, "2016-12", fixtureInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	// /23 + lone /24 for AS1, /24 + /48 for AS2.
	if m.Len() != 4 {
		t.Fatalf("entries = %v", m.Entries())
	}
	var merged *Entry
	for i := range m.Entries() {
		e := &m.Entries()[i]
		if e.Prefix.String() == "10.0.0.0/23" {
			merged = e
		}
	}
	if merged == nil {
		t.Fatal("adjacent blocks not merged into /23")
	}
	if merged.ASN != 1 || merged.Country != "DE" {
		t.Errorf("merged entry = %+v", merged)
	}
	// Hit-weighted ratio: (38+8)/(40+10).
	if math.Abs(merged.Ratio-46.0/50) > 1e-9 {
		t.Errorf("merged ratio = %g", merged.Ratio)
	}
	// DU: normalized over 100 raw -> /23 covers 50% of demand.
	if math.Abs(merged.DU-50000) > 1e-6 {
		t.Errorf("merged DU = %g", merged.DU)
	}
	if math.Abs(m.TotalDU()-demand.TotalDU) > 1e-6 {
		t.Errorf("total DU = %g (unmapped 99.9.9.0/24 carried no demand)", m.TotalDU())
	}
}

func TestLookup(t *testing.T) {
	m, err := Build(0.5, "2016-12", fixtureInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := m.Lookup(netip.MustParseAddr("10.0.1.200"))
	if !ok || e.Prefix.String() != "10.0.0.0/23" {
		t.Errorf("Lookup in merged prefix = %+v,%v", e, ok)
	}
	if _, ok := m.Lookup(netip.MustParseAddr("10.0.2.1")); ok {
		t.Error("gap address matched")
	}
	if _, ok := m.Lookup(netip.MustParseAddr("99.9.9.9")); ok {
		t.Error("unmapped block published")
	}
	e6, ok := m.Lookup(netip.MustParseAddr("2001:db8::42"))
	if !ok || e6.ASN != 2 {
		t.Errorf("v6 lookup = %+v,%v", e6, ok)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m, err := Build(0.5, "2016-12", fixtureInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != m.Len() || m2.Threshold != 0.5 || m2.Period != "2016-12" {
		t.Fatalf("round trip lost data: %d entries, th=%g", m2.Len(), m2.Threshold)
	}
	for i := range m.Entries() {
		a, b := m.Entries()[i], m2.Entries()[i]
		if a.Prefix != b.Prefix || a.ASN != b.ASN || math.Abs(a.DU-b.DU) > 1e-9 {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a, b)
		}
	}
	// Lookups work on the deserialized map.
	if _, ok := m2.Lookup(netip.MustParseAddr("10.0.4.7")); !ok {
		t.Error("lookup broken after round trip")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad header":     "{oops\n",
		"wrong format":   `{"format":"something-else","entries":0}` + "\n",
		"bad entry":      `{"format":"cellspot-map/1","entries":1}` + "\n{nope\n",
		"invalid prefix": `{"format":"cellspot-map/1","entries":1}` + "\n" + `{"prefix":"","asn":1}` + "\n",
		"truncated":      `{"format":"cellspot-map/1","entries":5}` + "\n" + `{"prefix":"10.0.0.0/24","asn":1}` + "\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadRejectsDuplicateBlock is the regression test for the silent
// last-wins shadowing bug: a file carrying the same block twice used to be
// accepted, with whichever entry sorted last winning the index. Read must
// instead fail, naming the duplicated block.
func TestReadRejectsDuplicateBlock(t *testing.T) {
	in := `{"format":"cellspot-map/1","entries":3}` + "\n" +
		`{"prefix":"10.0.0.0/24","asn":1,"du":5}` + "\n" +
		`{"prefix":"10.0.1.0/24","asn":1,"du":6}` + "\n" +
		`{"prefix":"10.0.0.0/24","asn":2,"du":7}` + "\n"
	_, err := Read(strings.NewReader(in))
	if err == nil {
		t.Fatal("duplicate block accepted")
	}
	if !strings.Contains(err.Error(), "duplicate block 10.0.0.0/24") {
		t.Errorf("error does not name the duplicate block: %v", err)
	}

	// Nested (non-identical) prefixes remain legal: longest-prefix match
	// disambiguates them, so they are not duplicates.
	nested := `{"format":"cellspot-map/1","entries":2}` + "\n" +
		`{"prefix":"10.0.0.0/23","asn":1}` + "\n" +
		`{"prefix":"10.0.0.0/24","asn":2}` + "\n"
	if _, err := Read(strings.NewReader(nested)); err != nil {
		t.Errorf("nested prefixes rejected: %v", err)
	}
}

// TestReadRejectsHostBits covers the companion hole: a prefix with host
// bits set would collide with its masked twin in the index while escaping
// an exact-equality duplicate check.
func TestReadRejectsHostBits(t *testing.T) {
	in := `{"format":"cellspot-map/1","entries":1}` + "\n" +
		`{"prefix":"10.0.0.7/24","asn":1}` + "\n"
	_, err := Read(strings.NewReader(in))
	if err == nil {
		t.Fatal("non-canonical prefix accepted")
	}
	if !strings.Contains(err.Error(), "host bits") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestBuildEmpty(t *testing.T) {
	in := fixtureInputs(t)
	in.Detected = netaddr.NewSet()
	m, err := Build(0.5, "x", in)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Error("empty detection produced entries")
	}
	if _, ok := m.Lookup(netip.MustParseAddr("10.0.0.1")); ok {
		t.Error("empty map matched")
	}
}

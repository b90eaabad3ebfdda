package netinfo

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestConnectionTypeRoundTrip(t *testing.T) {
	for _, c := range []ConnectionType{ConnUnknown, ConnCellular, ConnWiFi, ConnEthernet, ConnBluetooth, ConnWiMAX} {
		got, err := ParseConnectionType(c.String())
		if err != nil {
			t.Fatalf("parse %q: %v", c.String(), err)
		}
		if got != c {
			t.Errorf("round trip %v -> %v", c, got)
		}
	}
	if _, err := ParseConnectionType("5g-psychic"); err == nil {
		t.Error("garbage connection type accepted")
	}
	if got, err := ParseConnectionType(""); err != nil || got != ConnUnknown {
		t.Error("empty string should parse to unknown")
	}
}

func TestMonth(t *testing.T) {
	m := Month{2016, 12}
	if m.String() != "2016-12" {
		t.Errorf("String = %q", m.String())
	}
	if m.Index() != 23 {
		t.Errorf("Index = %d, want 23", m.Index())
	}
	if m.Next() != (Month{2017, 1}) {
		t.Errorf("Next = %v", m.Next())
	}
	if (Month{2015, 3}).Next() != (Month{2015, 4}) {
		t.Error("mid-year Next wrong")
	}
}

func TestBrowserSharesSumToOne(t *testing.T) {
	for _, cellular := range []bool{true, false} {
		sum := 0.0
		for b := Browser(0); b < numBrowsers; b++ {
			sum += BrowserShare(b, cellular)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("shares(cellular=%v) sum to %g", cellular, sum)
		}
	}
}

func TestAPIShareDec2016(t *testing.T) {
	// Paper: 13.2% of beacon hits carried the API in Dec 2016, with Google
	// browsers contributing 96.7% of enabled hits.
	total, byBrowser := ExpectedAPIShare(December2016, 0.162)
	if total < 0.11 || total > 0.15 {
		t.Errorf("Dec 2016 API share = %.3f, want near 0.132", total)
	}
	google := 0.0
	for b, s := range byBrowser {
		if b == ChromeMobile || b == AndroidWebKit || b == ChromeDesktop {
			google += s
		}
	}
	if frac := google / total; frac < 0.93 {
		t.Errorf("Google share of enabled hits = %.3f, want > 0.93", frac)
	}
	if byBrowser[MobileSafari] != 0 {
		t.Error("iOS Safari must not report Network Information in the window")
	}
	// Chrome Mobile dominates, then Android WebKit (Fig 1).
	if byBrowser[ChromeMobile] <= byBrowser[AndroidWebKit] {
		t.Error("Chrome Mobile should exceed Android WebKit")
	}
	if byBrowser[AndroidWebKit] <= byBrowser[FirefoxMobile] {
		t.Error("Android WebKit should exceed Firefox Mobile")
	}
}

func TestAPIShareGrowth(t *testing.T) {
	// Fig 1: share grows monotonically from 2015-09 through 2017-06 and
	// reaches ~15% by June 2017.
	prev := -1.0
	m := Month{2015, 9}
	for m.Index() <= (Month{2017, 6}).Index() {
		total, _ := ExpectedAPIShare(m, 0.162)
		if total < prev-1e-12 {
			t.Errorf("API share decreased at %s: %.4f -> %.4f", m, prev, total)
		}
		prev = total
		m = m.Next()
	}
	jun17, _ := ExpectedAPIShare(Month{2017, 6}, 0.162)
	if jun17 < 0.13 || jun17 > 0.17 {
		t.Errorf("Jun 2017 share = %.3f, want near 0.15", jun17)
	}
	// Flat outside the observed window.
	before, _ := ExpectedAPIShare(Month{2014, 1}, 0.162)
	start, _ := ExpectedAPIShare(Month{2015, 9}, 0.162)
	if math.Abs(before-start) > 1e-12 {
		t.Error("share not flat before window")
	}
}

func TestAPIProbBounded(t *testing.T) {
	f := func(bRaw uint8, year, mon int) bool {
		b := Browser(bRaw % uint8(numBrowsers))
		m := Month{2014 + year%5, 1 + mon%12}
		p := APIProb(b, m)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleBrowserDistribution(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	const n = 200000
	counts := map[Browser]int{}
	for i := 0; i < n; i++ {
		counts[SampleBrowser(rng, true)]++
	}
	for b := Browser(0); b < numBrowsers; b++ {
		want := BrowserShare(b, true)
		got := float64(counts[b]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%s: sampled %.3f, want %.3f", b, got, want)
		}
	}
}

func TestBrowserStrings(t *testing.T) {
	for b := Browser(0); b < numBrowsers; b++ {
		if b.String() == "" {
			t.Errorf("browser %d has empty name", b)
		}
	}
	if Browser(99).String() != "Browser(99)" {
		t.Error("unknown browser String")
	}
	if ConnectionType(99).String() != "ConnectionType(99)" {
		t.Error("unknown conn String")
	}
}

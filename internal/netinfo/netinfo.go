// Package netinfo models the Network Information API signal the paper's
// identification method is built on: which browsers expose the API, how its
// adoption grew over the measurement window (Fig 1), and how a device's
// reported ConnectionType relates to the access technology its IP address
// actually sits behind — including the two noise sources the paper documents
// (tethering/hotspots and the IP-vs-API interface-switch race).
package netinfo

import (
	"fmt"
	"math/rand/v2"
)

// ConnectionType is the enumeration the Network Information API reports.
type ConnectionType uint8

const (
	// ConnUnknown marks hits without Network Information data.
	ConnUnknown ConnectionType = iota
	// ConnCellular is a cellular radio connection.
	ConnCellular
	// ConnWiFi is an 802.11 connection.
	ConnWiFi
	// ConnEthernet is a wired connection.
	ConnEthernet
	// ConnBluetooth is a Bluetooth-tethered connection.
	ConnBluetooth
	// ConnWiMAX is a WiMAX connection.
	ConnWiMAX
)

// String returns the lowercase API token ("cellular", "wifi", ...).
func (c ConnectionType) String() string {
	switch c {
	case ConnCellular:
		return "cellular"
	case ConnWiFi:
		return "wifi"
	case ConnEthernet:
		return "ethernet"
	case ConnBluetooth:
		return "bluetooth"
	case ConnWiMAX:
		return "wimax"
	case ConnUnknown:
		return "unknown"
	}
	return fmt.Sprintf("ConnectionType(%d)", uint8(c))
}

// ParseConnectionType parses an API token as produced by String.
func ParseConnectionType(s string) (ConnectionType, error) {
	switch s {
	case "cellular":
		return ConnCellular, nil
	case "wifi":
		return ConnWiFi, nil
	case "ethernet":
		return ConnEthernet, nil
	case "bluetooth":
		return ConnBluetooth, nil
	case "wimax":
		return ConnWiMAX, nil
	case "unknown", "":
		return ConnUnknown, nil
	}
	return ConnUnknown, fmt.Errorf("netinfo: unknown connection type %q", s)
}

// Browser identifies the browser families visible in the beacon logs.
type Browser uint8

const (
	// ChromeMobile is Chrome for Android (API since v38, Oct 2014).
	ChromeMobile Browser = iota
	// AndroidWebKit is Android's native WebKit browser.
	AndroidWebKit
	// FirefoxMobile is Firefox for Android.
	FirefoxMobile
	// MobileSafari is Safari on iOS (no Network Information API during the
	// paper's collection window).
	MobileSafari
	// ChromeDesktop is desktop Chrome.
	ChromeDesktop
	// SafariDesktop is desktop Safari.
	SafariDesktop
	// OtherBrowser aggregates everything else.
	OtherBrowser
	numBrowsers
)

// String names the browser family.
func (b Browser) String() string {
	switch b {
	case ChromeMobile:
		return "Chrome Mobile"
	case AndroidWebKit:
		return "Android WebKit"
	case FirefoxMobile:
		return "Firefox Mobile"
	case MobileSafari:
		return "Mobile Safari"
	case ChromeDesktop:
		return "Chrome"
	case SafariDesktop:
		return "Safari"
	case OtherBrowser:
		return "Other"
	}
	return fmt.Sprintf("Browser(%d)", uint8(b))
}

// Month is a calendar month in the measurement timeline.
type Month struct {
	Year int
	Mon  int // 1..12
}

// String formats the month as "2016-12".
func (m Month) String() string { return fmt.Sprintf("%04d-%02d", m.Year, m.Mon) }

// Index returns the number of months since January 2015 (can be negative).
func (m Month) Index() int { return (m.Year-2015)*12 + m.Mon - 1 }

// Next returns the following month.
func (m Month) Next() Month {
	if m.Mon == 12 {
		return Month{Year: m.Year + 1, Mon: 1}
	}
	return Month{Year: m.Year, Mon: m.Mon + 1}
}

// December2016 is the paper's primary collection month.
var December2016 = Month{Year: 2016, Mon: 12}

// browserProfile holds per-browser beacon shares and API enablement at the
// December 2016 reference point.
type browserProfile struct {
	cellShare  float64 // share of beacon hits from cellular clients
	fixedShare float64 // share of beacon hits from fixed-line clients
	apiRef     float64 // P(hit carries Network Information) at Dec 2016
}

// profiles is calibrated so that in Dec 2016 ~13.2% of all hits carry the
// API, dominated by Chrome Mobile then Android WebKit, with Google browsers
// at ~97% of enabled hits (paper §3.1 and Fig 1).
var profiles = [numBrowsers]browserProfile{
	ChromeMobile:  {cellShare: 0.40, fixedShare: 0.08, apiRef: 0.65},
	AndroidWebKit: {cellShare: 0.16, fixedShare: 0.02, apiRef: 0.60},
	FirefoxMobile: {cellShare: 0.04, fixedShare: 0.01, apiRef: 0.25},
	MobileSafari:  {cellShare: 0.30, fixedShare: 0.06, apiRef: 0},
	ChromeDesktop: {cellShare: 0.02, fixedShare: 0.45, apiRef: 0.04},
	SafariDesktop: {cellShare: 0.02, fixedShare: 0.10, apiRef: 0},
	OtherBrowser:  {cellShare: 0.06, fixedShare: 0.28, apiRef: 0},
}

// growth returns the API-enablement multiplier for a month, normalized to
// 1.0 at December 2016. It follows Fig 1's near-linear climb from ~half the
// Dec-2016 level in late 2015 to ~1.15x by June 2017, flat outside the
// observed window.
func growth(m Month) float64 {
	const (
		startIdx = 8  // 2015-09
		refIdx   = 23 // 2016-12
		endIdx   = 29 // 2017-06
		startVal = 0.50
		refVal   = 1.00
		endVal   = 1.15
	)
	i := m.Index()
	switch {
	case i <= startIdx:
		return startVal
	case i <= refIdx:
		return startVal + (refVal-startVal)*float64(i-startIdx)/float64(refIdx-startIdx)
	case i <= endIdx:
		return refVal + (endVal-refVal)*float64(i-refIdx)/float64(endIdx-refIdx)
	default:
		return endVal
	}
}

// APIProb returns the probability that a hit from the given browser in the
// given month carries Network Information data.
func APIProb(b Browser, m Month) float64 {
	p := profiles[b].apiRef * growth(m)
	if p > 1 {
		p = 1
	}
	return p
}

// BrowserShare returns the browser's share of beacon hits for the given
// access type. Shares sum to 1 across browsers for each access type.
func BrowserShare(b Browser, cellular bool) float64 {
	if cellular {
		return profiles[b].cellShare
	}
	return profiles[b].fixedShare
}

// SampleBrowser draws a browser for one beacon hit.
func SampleBrowser(rng *rand.Rand, cellular bool) Browser {
	u := rng.Float64()
	cum := 0.0
	for b := Browser(0); b < numBrowsers; b++ {
		cum += BrowserShare(b, cellular)
		if u < cum {
			return b
		}
	}
	return OtherBrowser
}

// ExpectedAPIShare returns the expected fraction of beacon hits carrying
// Network Information data in a month, for a population where cellFrac of
// hits come from cellular clients; used to reproduce Fig 1 analytically and
// to cross-check the generator.
func ExpectedAPIShare(m Month, cellFrac float64) (total float64, byBrowser map[Browser]float64) {
	byBrowser = make(map[Browser]float64, int(numBrowsers))
	for b := Browser(0); b < numBrowsers; b++ {
		mix := cellFrac*profiles[b].cellShare + (1-cellFrac)*profiles[b].fixedShare
		s := mix * APIProb(b, m)
		byBrowser[b] = s
		total += s
	}
	return total, byBrowser
}

// Model captures the paper's label-noise mechanism on fixed lines.
type Model struct {
	// SwitchRaceRate is the probability that a fixed-line client's hit
	// reports "cellular" because the interface changed between IP capture
	// and API invocation — the paper's only cellular false-positive path.
	SwitchRaceRate float64
}

// DefaultModel mirrors the noise level implied by the paper's validation:
// cellular false positives are "very few".
var DefaultModel = Model{SwitchRaceRate: 0.002}

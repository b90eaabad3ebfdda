package netinfo

import "fmt"

// RAT is a radio access technology generation. The paper's world model only
// distinguishes "cellular vs not"; the related 5G-era work frames the
// interesting questions as 3G/4G/5G coexistence and migration, so the world
// model carries a per-operator RAT mix keyed off the measurement month.
type RAT uint8

const (
	// RAT3G covers UMTS/HSPA-class radios.
	RAT3G RAT = iota
	// RAT4G covers LTE-class radios.
	RAT4G
	// RAT5G covers NR-class radios.
	RAT5G
	// NumRATs is the number of modelled radio generations.
	NumRATs = 3
)

// String returns the lowercase wire token ("3g", "4g", "5g").
func (r RAT) String() string {
	switch r {
	case RAT3G:
		return "3g"
	case RAT4G:
		return "4g"
	case RAT5G:
		return "5g"
	}
	return fmt.Sprintf("RAT(%d)", uint8(r))
}

// ParseRAT parses a wire token as produced by String.
func ParseRAT(s string) (RAT, error) {
	switch s {
	case "3g":
		return RAT3G, nil
	case "4g":
		return RAT4G, nil
	case "5g":
		return RAT5G, nil
	}
	return 0, fmt.Errorf("netinfo: unknown RAT %q", s)
}

// RATMix is the share of cellular traffic carried per radio generation,
// indexed by RAT. A valid mix is nonnegative and sums to 1.
type RATMix [NumRATs]float64

// normalize rescales the mix to sum to 1; an all-zero mix becomes pure 4G
// (the dominant technology across the modelled window).
func (x RATMix) normalize() RATMix {
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	if sum <= 0 {
		return RATMix{RAT4G: 1}
	}
	for i := range x {
		x[i] /= sum
	}
	return x
}

// ratKnot anchors the baseline adoption curve at one month index.
type ratKnot struct {
	idx int // Month.Index()
	mix RATMix
}

// baselineKnots traces global adoption: 3G still carrying roughly half of
// cellular traffic in early 2015, LTE dominant by the paper's Dec 2016
// window, NR appearing in 2019 and taking the majority share by mid-decade.
// Mixes between knots are interpolated linearly.
var baselineKnots = []ratKnot{
	{idx: Month{Year: 2015, Mon: 1}.Index(), mix: RATMix{0.55, 0.45, 0}},
	{idx: Month{Year: 2016, Mon: 12}.Index(), mix: RATMix{0.30, 0.70, 0}},
	{idx: Month{Year: 2019, Mon: 4}.Index(), mix: RATMix{0.15, 0.84, 0.01}},
	{idx: Month{Year: 2022, Mon: 1}.Index(), mix: RATMix{0.05, 0.60, 0.35}},
	{idx: Month{Year: 2025, Mon: 1}.Index(), mix: RATMix{0.01, 0.39, 0.60}},
}

// BaselineRATMix returns the global radio-generation traffic mix for a
// month: flat before the first and after the last knot, linear in between.
func BaselineRATMix(m Month) RATMix {
	i := m.Index()
	if i <= baselineKnots[0].idx {
		return baselineKnots[0].mix
	}
	last := baselineKnots[len(baselineKnots)-1]
	if i >= last.idx {
		return last.mix
	}
	for k := 1; k < len(baselineKnots); k++ {
		lo, hi := baselineKnots[k-1], baselineKnots[k]
		if i > hi.idx {
			continue
		}
		t := float64(i-lo.idx) / float64(hi.idx-lo.idx)
		var out RATMix
		for r := range out {
			out[r] = lo.mix[r] + (hi.mix[r]-lo.mix[r])*t
		}
		return out.normalize()
	}
	return last.mix
}

// RATProfile shapes one operator's adoption relative to the baseline curve.
// The zero value is a laggard without a 5G deployment.
type RATProfile struct {
	// LagMonths shifts the operator's position on the adoption curve:
	// positive values adopt later than the baseline, negative earlier.
	// It is 16 bits wide because every world block carries a copy.
	LagMonths int16
	// FiveG reports whether the operator has deployed NR at all; without
	// it the baseline's 5G share is carried on LTE instead.
	FiveG bool
}

// Mix returns the operator's radio-generation traffic mix for a month.
func (p RATProfile) Mix(m Month) RATMix {
	shifted := Month{Year: m.Year, Mon: m.Mon - int(p.LagMonths)}
	// Month arithmetic via Index keeps Mon in 1..12 irrelevant here: the
	// baseline curve only consumes the index, which is linear in months.
	mix := baselineRATMixByIndex(shifted.Index())
	if !p.FiveG {
		mix[RAT4G] += mix[RAT5G]
		mix[RAT5G] = 0
	}
	return mix.normalize()
}

// baselineRATMixByIndex is BaselineRATMix on a raw month index, used when a
// lag shift pushes Mon outside 1..12.
func baselineRATMixByIndex(i int) RATMix {
	// Reconstruct a Month with the same index; Index is linear so any
	// (Year, Mon) pair with that index works.
	y, mo := 2015+i/12, i%12+1
	if mo < 1 {
		y--
		mo += 12
	}
	return BaselineRATMix(Month{Year: y, Mon: mo})
}

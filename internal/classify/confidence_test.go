package classify

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWilsonIntervalBasics(t *testing.T) {
	lo, hi, err := WilsonInterval(50, 100, Z95())
	if err != nil {
		t.Fatal(err)
	}
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("interval [%.3f,%.3f] should straddle 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("interval too wide for n=100: %.3f", hi-lo)
	}
	// Extremes pin to the boundary (within floating point).
	lo, hi, err = WilsonInterval(0, 3, Z95())
	if err != nil || lo > 1e-9 {
		t.Errorf("k=0 interval [%.3f,%.3f], err %v", lo, hi, err)
	}
	lo, hi, err = WilsonInterval(3, 3, Z95())
	if err != nil || hi < 1-1e-9 {
		t.Errorf("k=n interval [%.3f,%.3f], err %v", lo, hi, err)
	}
}

func TestWilsonIntervalErrors(t *testing.T) {
	if _, _, err := WilsonInterval(0, 0, Z95()); err == nil {
		t.Error("n=0 accepted")
	}
	if _, _, err := WilsonInterval(-1, 5, Z95()); err == nil {
		t.Error("negative k accepted")
	}
	if _, _, err := WilsonInterval(6, 5, Z95()); err == nil {
		t.Error("k>n accepted")
	}
}

func TestConfident(t *testing.T) {
	// 19 of 20 cellular: clearly above 0.5.
	ok, err := Confident(19, 20, 0.5, Z95())
	if err != nil || !ok {
		t.Errorf("19/20 not settled: %v %v", ok, err)
	}
	// 2 of 4 cellular: unsettled at 0.5.
	ok, err = Confident(2, 4, 0.5, Z95())
	if err != nil || ok {
		t.Errorf("2/4 settled: %v %v", ok, err)
	}
	// 0 of 30: settled below.
	ok, err = Confident(0, 30, 0.5, Z95())
	if err != nil || !ok {
		t.Errorf("0/30 not settled: %v %v", ok, err)
	}
}

func TestConfidentFraction(t *testing.T) {
	counts := map[int][2]int{
		0: {19, 20}, // settled high
		1: {0, 30},  // settled low
		2: {2, 4},   // unsettled
		3: {0, 0},   // no API hits: excluded
	}
	got := ConfidentFraction(counts, 0.5, Z95())
	if math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("fraction = %g, want 2/3", got)
	}
	if ConfidentFraction(nil, 0.5, Z95()) != 0 {
		t.Error("empty input nonzero")
	}
}

// Property: the Wilson interval always contains the point estimate and is
// ordered within [0,1].
func TestWilsonIntervalProperty(t *testing.T) {
	f := func(kRaw, nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		k := int(kRaw) % (n + 1)
		lo, hi, err := WilsonInterval(k, n, Z95())
		if err != nil {
			return false
		}
		p := float64(k) / float64(n)
		return lo >= 0 && hi <= 1 && lo <= p+1e-12 && hi >= p-1e-12 && lo <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: more evidence never widens the interval (same proportion).
func TestWilsonShrinksProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%100) + 4
		lo1, hi1, err1 := WilsonInterval(n/2, n, Z95())
		lo2, hi2, err2 := WilsonInterval(n*5/2, n*5, Z95())
		if err1 != nil || err2 != nil {
			return false
		}
		return (hi2 - lo2) <= (hi1-lo1)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

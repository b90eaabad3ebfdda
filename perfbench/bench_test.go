package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmoke runs every workload briefly, untraced and traced, at a small
// world scale, and checks that the output checks pass and that the last
// line carries exactly the declared metrics with their units.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "3",
					"--trace", trace, "--scale", "0.004"}, &out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s = %+v, want unit %s", m.name, got, m.unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

func TestHashAnswerRejectsMixedGenerations(t *testing.T) {
	one := []byte(`{"generation":3,"results":[{"addr":"1.2.3.4","generation":3}]}`)
	two := []byte(`{"generation":4,"results":[{"addr":"1.2.3.4","generation":4}]}`)
	mixed := []byte(`{"generation":4,"results":[{"addr":"1.2.3.4","generation":3}]}`)
	h1, g1, ok1 := hashAnswer(one)
	h2, g2, ok2 := hashAnswer(two)
	if !ok1 || !ok2 || h1 != h2 || g1 != 3 || g2 != 4 {
		t.Fatalf("same answer at two generations: %x/%d/%v vs %x/%d/%v", h1, g1, ok1, h2, g2, ok2)
	}
	if _, _, ok := hashAnswer(mixed); ok {
		t.Fatal("mixed-generation answer accepted")
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120},
	}
	got := tr.selfTimes("root")
	if len(got) != 1 || got[0] != 40 {
		t.Fatalf("self time = %v, want [40ns]", got)
	}
}

package cellspot

import (
	"strings"
	"testing"

	"cellspot/internal/aschar"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.World.Scale = 0.002
	cfg.Beacon.TotalHits = 3_000_000
	return cfg
}

func TestRunFacade(t *testing.T) {
	r, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Macro.GlobalCellFrac() <= 0 {
		t.Error("no cellular demand measured")
	}
	if r.Detected.Len() == 0 {
		t.Error("nothing detected")
	}
}

func TestClassifierFacade(t *testing.T) {
	if _, err := NewClassifier(0); err == nil {
		t.Error("bad threshold accepted")
	}
	c, err := NewClassifier(0.5)
	if err != nil || c.Threshold() != 0.5 {
		t.Fatal(err)
	}
	b, err := ParseBlock("192.0.2.0/24")
	if err != nil || b.String() != "192.0.2.0/24" {
		t.Fatalf("ParseBlock: %v %v", b, err)
	}
}

func TestGenerateWorldFacade(t *testing.T) {
	cfg := smallConfig()
	w, err := GenerateWorld(cfg.World)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunOnWorld(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.World != w {
		t.Error("RunOnWorld did not reuse the world")
	}
}

func TestWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	env := NewEnv(smallConfig())
	var sb strings.Builder
	if err := WriteReport(&sb, env); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range ExperimentIDs() {
		if !strings.Contains(out, "==== "+id+" ") {
			t.Errorf("report missing experiment %s", id)
		}
	}
	if !strings.Contains(out, "Summary — measured vs paper") {
		t.Error("report missing summary table")
	}
	if !strings.Contains(out, "global_cellfrac") {
		t.Error("summary missing headline metric")
	}
}

func TestRunCaseStudyFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale case study is slow")
	}
	r, err := RunCaseStudy(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.World.CarrierA == nil || r.World.CarrierB == nil || r.World.CarrierC == nil {
		t.Fatal("case study carriers missing")
	}
	if networkByASN(r, r.World.CarrierA.AS.Number) == nil {
		t.Error("carrier A not among identified cellular networks")
	}
	if networkByASN(r, 4294967295) != nil {
		t.Error("networkByASN invented a network")
	}
}

// networkByASN returns the characterized network for an AS, or nil.
func networkByASN(r *Result, asNum uint32) *aschar.Network {
	for i := range r.Networks {
		if r.Networks[i].ASN == asNum {
			return &r.Networks[i]
		}
	}
	return nil
}

func TestExperimentIDsStable(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 22 {
		t.Fatalf("experiments = %d, want 22 (8 tables + 12 figures + 2 extensions)", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %s", id)
		}
		seen[id] = true
	}
	for _, want := range []string{"T3", "T8", "F1", "F12"} {
		if !seen[want] {
			t.Errorf("missing %s", want)
		}
	}
}

package evolve

import (
	"bytes"
	"math"
	"net/netip"
	"reflect"
	"testing"

	"cellspot/internal/history"
	"cellspot/internal/netinfo"
	"cellspot/internal/snapshot"
	"cellspot/internal/world"
)

func TestScenarioRegistry(t *testing.T) {
	want := []string{"baseline", "5g-rollout", "operator-merger", "cgnat-expansion"}
	got := Scenarios()
	if len(got) != len(want) {
		t.Fatalf("scenarios = %d, want %d", len(got), len(want))
	}
	for i, sc := range got {
		if sc.Name != want[i] {
			t.Errorf("scenario %d = %q, want %q", i, sc.Name, want[i])
		}
		if sc.Description == "" {
			t.Errorf("scenario %q has no description", sc.Name)
		}
		byName, ok := ScenarioByName(sc.Name)
		if !ok || byName != sc {
			t.Errorf("ScenarioByName(%q) failed", sc.Name)
		}
	}
	if _, ok := ScenarioByName("nope"); ok {
		t.Error("unknown scenario resolved")
	}
}

func scenarioRun(t *testing.T, name string, months int) *ScenarioRun {
	t.Helper()
	sc, ok := ScenarioByName(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	cfg := testConfig()
	cfg.Months = months
	run, err := RunScenario(smallWorld(t), sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestRunScenarioBaseline(t *testing.T) {
	run := scenarioRun(t, "baseline", 3)
	if len(run.Maps) != 3 || len(run.Months) != 3 || len(run.Timeline.Snapshots) != 3 {
		t.Fatalf("run shape: %d maps, %d months, %d snapshots",
			len(run.Maps), len(run.Months), len(run.Timeline.Snapshots))
	}
	month := netinfo.December2016
	for i, m := range run.Maps {
		if m.Len() == 0 {
			t.Fatalf("month %d: empty map", i)
		}
		if m.Period != month.String() || run.Months[i] != month {
			t.Errorf("month %d: period %q / %v, want %v", i, m.Period, run.Months[i], month)
		}
		if !m.HasRAT() {
			t.Errorf("month %d: map lost its RAT column", i)
		}
		month = month.Next()
	}
	if churn := run.MapChurns(); len(churn) != 2 {
		t.Fatalf("map churn pairs = %d", len(churn))
	}
}

func TestRunScenarioDeterminism(t *testing.T) {
	a := scenarioRun(t, "operator-merger", 3)
	b := scenarioRun(t, "operator-merger", 3)
	for i := range a.Maps {
		var ba, bb bytes.Buffer
		if err := a.Maps[i].Write(&ba); err != nil {
			t.Fatal(err)
		}
		if err := b.Maps[i].Write(&bb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
			t.Fatalf("month %d: maps differ between identical runs", i)
		}
	}
}

func TestScenarioFiveGRollout(t *testing.T) {
	run := scenarioRun(t, "5g-rollout", 4)
	if run.Months[0] != (netinfo.Month{Year: 2019, Mon: 6}) {
		t.Fatalf("rollout starts at %v", run.Months[0])
	}
	first, ok1 := FiveGShare(run.Maps[0])
	last, ok2 := FiveGShare(run.Maps[len(run.Maps)-1])
	if !ok1 || !ok2 {
		t.Fatalf("missing RAT columns: first ok=%v last ok=%v", ok1, ok2)
	}
	if last <= first {
		t.Errorf("5G share did not grow: %.4f -> %.4f", first, last)
	}
}

// TestFiveGRolloutLagSaturates runs the 5G step on blocks whose lag sits
// at and near the bottom of its int16 range: each step takes 4 months off
// until the lag reaches math.MinInt16 and stays there, never wrapping to a
// late adopter, while a fixed block's profile is left alone.
func TestFiveGRolloutLagSaturates(t *testing.T) {
	cell := func(lag int16) *world.BlockInfo {
		return &world.BlockInfo{Cellular: true, RAT: netinfo.RATProfile{LagMonths: lag}}
	}
	w := &world.World{Blocks: []*world.BlockInfo{
		cell(12), cell(-18), cell(math.MinInt16 + 9), cell(math.MinInt16 + 3), cell(math.MinInt16),
		{RAT: netinfo.RATProfile{LagMonths: math.MinInt16 + 1}},
	}}
	want := [][]int16{
		{8, -22, math.MinInt16 + 5, math.MinInt16, math.MinInt16, math.MinInt16 + 1},
		{4, -26, math.MinInt16 + 1, math.MinInt16, math.MinInt16, math.MinInt16 + 1},
		{0, -30, math.MinInt16, math.MinInt16, math.MinInt16, math.MinInt16 + 1},
		{-4, -34, math.MinInt16, math.MinInt16, math.MinInt16, math.MinInt16 + 1},
	}
	for step, lags := range want {
		stepFiveGRollout(w, nil, step, nil)
		for i, b := range w.Blocks {
			if b.RAT.LagMonths != lags[i] {
				t.Fatalf("step %d, block %d: lag %d, want %d", step, i, b.RAT.LagMonths, lags[i])
			}
			if b.RAT.FiveG != b.Cellular {
				t.Fatalf("step %d, block %d: FiveG %v on a block with Cellular %v", step, i, b.RAT.FiveG, b.Cellular)
			}
		}
	}
	// A saturated profile still yields a traffic mix that sums to one.
	mix := w.Blocks[4].RAT.Mix(netinfo.Month{Year: 2019, Mon: 6})
	sum := 0.0
	for _, v := range mix {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("saturated mix %+v sums to %v", mix, sum)
	}
}

func TestScenarioOperatorMerger(t *testing.T) {
	run := scenarioRun(t, "operator-merger", 4)
	_, acquired := topTwoCellularASes(smallWorld(t))
	if acquired == 0 {
		t.Skip("world too small for a second cellular operator")
	}
	count := func(i int) int {
		n := 0
		for _, e := range run.Maps[i].Entries() {
			if e.ASN == acquired {
				n++
			}
		}
		return n
	}
	// Months 0..1 predate the merger (Step fires at m == Months/2 == 2).
	if count(0) == 0 {
		t.Fatal("acquired AS absent before the merger")
	}
	if got := count(len(run.Maps) - 1); got != 0 {
		t.Errorf("acquired AS still owns %d prefixes after the merger", got)
	}
	moved := 0
	for _, mc := range run.MapChurns() {
		moved += mc.Moved
	}
	if moved == 0 {
		t.Error("merger produced no moved prefixes in the churn report")
	}
}

func TestScenarioCGNATExpansion(t *testing.T) {
	run := scenarioRun(t, "cgnat-expansion", 4)
	asn, _ := topTwoCellularASes(smallWorld(t))
	owned := func(i int) int {
		n := 0
		for _, e := range run.Maps[i].Entries() {
			if e.ASN == asn {
				n++
			}
		}
		return n
	}
	if first, last := owned(0), owned(len(run.Maps)-1); last <= first {
		t.Errorf("CGNAT pool did not grow: %d -> %d prefixes", first, last)
	}
	for i, mc := range run.MapChurns() {
		if mc.Added == 0 {
			t.Errorf("pair %d: no added prefixes during expansion", i)
		}
	}
}

// TestHistoryMatchesOfflineChangePoints is the acceptance criterion:
// publishing a scenario's monthly maps as snapshot generations and asking
// the history index for an address's timeline yields exactly the change
// points the offline report computes from the same maps — same
// generations, same states, same attached values.
func TestHistoryMatchesOfflineChangePoints(t *testing.T) {
	run := scenarioRun(t, "operator-merger", 4)
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := run.Publish(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != len(run.Maps) {
		t.Fatalf("published %d of %d maps", len(seqs), len(run.Maps))
	}
	ix, err := history.New(history.Config{Store: store, MaxResident: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Probe the first address of every prefix that appears in any month,
	// capped for test speed but always spanning all months.
	seen := make(map[netip.Addr]bool)
	var probes []netip.Addr
	for _, m := range run.Maps {
		perMap := 0
		for _, e := range m.Entries() {
			a := e.Prefix.Addr()
			if seen[a] {
				continue
			}
			seen[a] = true
			probes = append(probes, a)
			if perMap++; perMap >= 25 {
				break
			}
		}
	}
	if len(probes) == 0 {
		t.Fatal("no probe addresses")
	}

	withChanges := 0
	for _, addr := range probes {
		want := ChangePoints(run.Maps, seqs, addr)
		got, err := ix.Timeline(addr, addr.String())
		if err != nil {
			t.Fatal(err)
		}
		if got.Examined != len(run.Maps) {
			t.Fatalf("%s: examined %d of %d generations", addr, got.Examined, len(run.Maps))
		}
		if !reflect.DeepEqual(got.Changes, want) {
			t.Errorf("%s:\n  history: %+v\n  offline: %+v", addr, got.Changes, want)
		}
		if len(want) > 1 {
			withChanges++
		}
	}
	if withChanges == 0 {
		t.Error("no probe address changed state across the merger — test has no teeth")
	}
}

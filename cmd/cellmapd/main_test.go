package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cellspot/internal/cellmap"
	"cellspot/internal/history"
	"cellspot/internal/snapshot"
)

// testMap builds an n-entry map through the wire format.
func testMap(t *testing.T, period string, n int) *cellmap.Map {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, `{"format":"cellspot-map/1","threshold":0.5,"period":%q,"entries":%d}`+"\n", period, n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"prefix":"10.9.%d.0/24","asn":%d,"ratio":0.8,"du":1,"country":"DE"}`+"\n", i, 100+i)
	}
	m, err := cellmap.Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// publishGen publishes m as the store's next generation, the same way the
// live aggregator does.
func publishGen(t *testing.T, store *snapshot.Store, m *cellmap.Map) snapshot.Generation {
	t.Helper()
	gen, err := store.Publish(func(staging string) error {
		return history.WriteGeneration(staging, m, "", "")
	})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestSIGHUPSwapsGeneration covers the operator path end to end: a node
// boots from the store's generation 1, a new generation is published, and
// /v1/info must keep reporting generation 1 until SIGHUP lands, then
// report generation 2.
func TestSIGHUPSwapsGeneration(t *testing.T) {
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	publishGen(t, store, testMap(t, "2016-12", 4))

	d, source, err := bootDaemon(store, "", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if d.sw.Generation() != 1 {
		t.Fatalf("booted at generation %d from %s, want 1", d.sw.Generation(), source)
	}

	mux := http.NewServeMux()
	cellmap.MountSource(mux, d.sw)
	d.mountReload(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	getInfo := func() cellmap.Info {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/info")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info cellmap.Info
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info
	}
	if info := getInfo(); info.Generation != 1 || info.Entries != 4 || info.Period != "2016-12" {
		t.Fatalf("boot info = %+v", info)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	d.watchHUP(ctx, &wg)
	defer wg.Wait()
	defer cancel()

	// Publishing alone must not move the served generation: nothing polls
	// in this configuration.
	publishGen(t, store, testMap(t, "2017-01", 6))
	if info := getInfo(); info.Generation != 1 {
		t.Fatalf("generation moved to %d without any reload trigger", info.Generation)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		info := getInfo()
		if info.Generation == 2 {
			if info.Entries != 6 || info.Period != "2017-01" {
				t.Fatalf("post-SIGHUP info = %+v", info)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("still at generation %d after SIGHUP", info.Generation)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPollStorePicksUpGeneration drives the jittered polling loop: a
// published generation must be swapped in without any signal.
func TestPollStorePicksUpGeneration(t *testing.T) {
	store, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	publishGen(t, store, testMap(t, "2016-12", 4))
	d, _, err := bootDaemon(store, "", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	d.pollStore(ctx, &wg, 5*time.Millisecond, 1)
	defer wg.Wait()
	defer cancel()

	publishGen(t, store, testMap(t, "2017-01", 6))
	deadline := time.Now().Add(2 * time.Second)
	for d.sw.Generation() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("poller never swapped; still at generation %d", d.sw.Generation())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBootDaemonPrecedence: the store's CURRENT generation outranks a
// static -map file; an empty store falls back to it.
func TestBootDaemonPrecedence(t *testing.T) {
	mapFile := filepath.Join(t.TempDir(), "cellmap.jsonl")
	f, err := os.Create(mapFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := testMap(t, "static", 2).Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	empty, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, source, err := bootDaemon(empty, mapFile, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m, gen := d.sw.Current(); gen != 0 || m.Period != "static" || source != mapFile {
		t.Errorf("empty store boot: gen=%d period=%q source=%q", gen, m.Period, source)
	}

	full, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	publishGen(t, full, testMap(t, "2017-01", 6))
	d, _, err = bootDaemon(full, mapFile, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m, gen := d.sw.Current(); gen != 1 || m.Period != "2017-01" {
		t.Errorf("store boot: gen=%d period=%q, want the store generation", gen, m.Period)
	}
}

// TestPollJitterBounds: every drawn delay lies in [0.9, 1.1) of the base
// interval, and the schedule is not degenerate.
func TestPollJitterBounds(t *testing.T) {
	base := 10 * time.Second
	rng := rand.New(rand.NewPCG(1, pollStream))
	lo := time.Duration(float64(base) * 0.9)
	hi := time.Duration(float64(base) * 1.1)
	moved := false
	for i := 0; i < 1000; i++ {
		d := nextPollDelay(base, rng)
		if d < lo || d >= hi {
			t.Fatalf("draw %d: delay %v outside [%v, %v)", i, d, lo, hi)
		}
		if d != base {
			moved = true
		}
	}
	if !moved {
		t.Error("1000 draws never moved off the base interval")
	}
}

// TestPollJitterDeterministicPerSeed: one seed reproduces one schedule;
// distinct seeds de-synchronize nodes.
func TestPollJitterDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64) []time.Duration {
		rng := rand.New(rand.NewPCG(seed, pollStream))
		out := make([]time.Duration, 32)
		for i := range out {
			out[i] = nextPollDelay(time.Second, rng)
		}
		return out
	}
	if !slices.Equal(draw(7), draw(7)) {
		t.Error("same seed produced different schedules")
	}
	if slices.Equal(draw(7), draw(8)) {
		t.Error("different seeds produced identical schedules")
	}
}

// TestGatewayRejectsAggregationFlags: a gateway holds no store, so a
// -federation-listen (or -live-spool) beside -gateway must fail flag
// validation, naming the flag, instead of being silently dropped. The
// topology file does not exist, so a run that got past validation would
// fail on loading it instead.
func TestGatewayRejectsAggregationFlags(t *testing.T) {
	topo := filepath.Join(t.TempDir(), "topology.json")
	var logs strings.Builder
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	for _, extra := range [][]string{
		{"-federation-listen", "127.0.0.1:0"},
		{"-live-spool", t.TempDir()},
	} {
		logs.Reset()
		args := append([]string{"-gateway", "-topology", topo, "-addr", "127.0.0.1:0"}, extra...)
		if code := run(args); code != 2 {
			t.Errorf("run %v = %d, want 2", args, code)
		}
		if !strings.Contains(logs.String(), extra[0]) {
			t.Errorf("run %v logged %q, want a rejection naming %s", args, logs.String(), extra[0])
		}
	}
}

// TestShardFlagValidation pins the shard-role flag rules: -shard needs
// -topology, and -gateway excludes -shard. Each refusal exits 2 during flag
// validation and names the offending flag.
func TestShardFlagValidation(t *testing.T) {
	topo := filepath.Join(t.TempDir(), "topology.json")
	var logs strings.Builder
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-shard", "0/2", "-map", "cellmap.jsonl", "-addr", "127.0.0.1:0"}, "-shard requires -topology"},
		{[]string{"-gateway", "-shard", "0/2", "-topology", topo, "-addr", "127.0.0.1:0"}, "-gateway and -shard are mutually exclusive"},
	} {
		logs.Reset()
		if code := run(tc.args); code != 2 {
			t.Errorf("run %v = %d, want 2", tc.args, code)
		}
		if !strings.Contains(logs.String(), tc.want) {
			t.Errorf("run %v logged %q, want %q", tc.args, logs.String(), tc.want)
		}
	}
}

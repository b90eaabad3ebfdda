package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"cellspot/internal/cellmap"
	"cellspot/internal/history"
	"cellspot/internal/live"
	"cellspot/internal/obs/httpmw"
	"cellspot/internal/snapshot"
)

// daemon is the map-serving core of cellmapd: a hot-swappable map plus
// the machinery that refreshes it. It is split out of run() so tests can
// exercise the reload paths (SIGHUP, poll, POST /v1/reload) against an
// httptest server without a real process lifecycle.
type daemon struct {
	sw      *cellmap.Swappable
	store   *snapshot.Store // nil in static -map mode
	hist    *history.Index  // nil in static -map mode; set after boot
	mapPath string          // "" when only a store is configured
	logf    func(string, ...any)

	mu sync.Mutex // serializes loaders, not lookups: readers never block on a reload
}

// bootDaemon assembles the serving state. The store's CURRENT generation
// wins; a static map file is the fallback; an empty bootstrap map serves
// misses until the first generation lands. The returned string describes
// the boot source for the startup log line.
func bootDaemon(store *snapshot.Store, mapPath string, logf func(string, ...any)) (*daemon, string, error) {
	m := cellmap.Empty("boot")
	gen := uint64(0)
	source := "bootstrap (empty)"
	if store != nil {
		cur, ok, err := store.Current()
		if err != nil {
			return nil, "", err
		}
		if ok {
			lm, err := live.ReadGenerationMap(cur)
			if err != nil {
				return nil, "", err
			}
			m, gen, source = lm, cur.Seq, cur.Dir
		}
	}
	if gen == 0 && mapPath != "" {
		sm, err := cellmap.ReadFile(mapPath)
		if err != nil {
			return nil, "", err
		}
		m, source = sm, mapPath
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &daemon{
		sw:      cellmap.NewSwappable(m, gen),
		store:   store,
		mapPath: mapPath,
		logf:    logf,
	}, source, nil
}

// reload loads a newer generation (or re-reads the static map file) and
// swaps it in.
func (d *daemon) reload(force bool) (swapped bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.store != nil {
		cur, ok, err := d.store.Current()
		if err != nil {
			return false, err
		}
		if ok && (cur.Seq > d.sw.Generation() || force) {
			lm, err := live.ReadGenerationMap(cur)
			if err != nil {
				return false, err
			}
			d.sw.Swap(lm, cur.Seq)
			d.logf("swapped to generation %d: %d prefixes, period %s", cur.Seq, lm.Len(), lm.Period)
			// Bring the history index's metadata view up to the swap: new
			// generation added, pruned ones dropped. Failure is not fatal
			// to serving — history answers catch up on their own rescan.
			if d.hist != nil {
				if err := d.hist.Refresh(); err != nil {
					d.logf("history refresh: %v", err)
				}
			}
			return true, nil
		}
		if ok || d.mapPath == "" {
			return false, nil
		}
		// Store exists but is empty: fall through to the static file.
	}
	if d.mapPath == "" || !force {
		return false, nil
	}
	sm, err := cellmap.ReadFile(d.mapPath)
	if err != nil {
		return false, err
	}
	d.sw.Swap(sm, 0)
	d.logf("reloaded %s: %d prefixes, period %s", d.mapPath, sm.Len(), sm.Period)
	return true, nil
}

// mountReload registers the POST /v1/reload route.
func (d *daemon) mountReload(r httpmw.Router) {
	r.HandleFunc("POST /v1/reload", func(w http.ResponseWriter, _ *http.Request) {
		swapped, err := d.reload(true)
		w.Header().Set("Content-Type", "application/json")
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		cur, curGen := d.sw.Current()
		json.NewEncoder(w).Encode(map[string]any{
			"reloaded":   swapped,
			"generation": curGen,
			"entries":    cur.Len(),
			"period":     cur.Period,
		})
	})
}

// watchHUP forces a reload on SIGHUP, the unix idiom for "pick up the
// new data". The watcher exits when ctx is done.
func (d *daemon) watchHUP(ctx context.Context, wg *sync.WaitGroup) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer signal.Stop(hup)
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				if _, err := d.reload(true); err != nil {
					d.logf("reload (SIGHUP): %v", err)
				}
			}
		}
	}()
}

// pollStore re-checks the snapshot store for newer generations on a
// jittered cadence, picking up generations published by an external
// aggregator (or the embedded one) without any signal plumbing. Each delay
// is drawn from base ±10% so a fleet of nodes started together (or
// restarted by the same supervisor) does not stat the shared store in
// lockstep forever. The seed makes the schedule deterministic for tests
// and reproducible from logs.
func (d *daemon) pollStore(ctx context.Context, wg *sync.WaitGroup, base time.Duration, seed uint64) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(seed, pollStream))
		t := time.NewTimer(nextPollDelay(base, rng))
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if _, err := d.reload(false); err != nil {
					d.logf("reload (poll): %v", err)
				}
				t.Reset(nextPollDelay(base, rng))
			}
		}
	}()
}

// pollStream fixes the PCG stream so a seed alone reproduces the
// schedule.
const pollStream = 0x9e3779b97f4a7c15

// nextPollDelay draws the next polling delay, uniform in [0.9, 1.1) of
// base.
func nextPollDelay(base time.Duration, rng *rand.Rand) time.Duration {
	return time.Duration(float64(base) * (0.9 + 0.2*rng.Float64()))
}

// jitterSeed derives the default poll-jitter seed from the process
// identity, so co-scheduled nodes land on distinct schedules while one
// node's schedule stays explainable from its logged seed.
func jitterSeed() uint64 {
	h := fnv.New64a()
	host, _ := os.Hostname()
	fmt.Fprintf(h, "%s/%d", host, os.Getpid())
	return h.Sum64()
}

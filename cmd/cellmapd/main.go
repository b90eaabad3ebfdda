// Command cellmapd serves a cellular map over HTTP: the lookup
// microservice a CDN would run in front of the published dataset.
//
// The served map can be static (-map FILE, the classic mode) or live: with
// -snapshots the daemon boots from the snapshot store's CURRENT generation
// and hot-swaps to newer generations with zero lookup downtime — on SIGHUP,
// on POST /v1/reload, or by polling the store (-poll, jittered ±10%).
//
// The daemon can also embed the aggregation plane that publishes those
// generations: one fold-and-publish core (live.Aggregator) that folds
// beacons into a sliding window and publishes a new generation every
// -refresh interval. Exactly one of two input adapters feeds it. With
// -live-spool the core reads a local beacond spool's sealed shards; with
// -federation-listen a second listener instead accepts sealed-shard
// segments shipped by remote beacond collectors (-ship-to on their side)
// and folds each exactly once. Both write the same checkpoint format into
// every generation, so a restarted daemon resumes where it left off.
//
// The daemon also has two cluster roles. As a shard node it serves only
// its partition of the keyspace and refuses misrouted addresses; as a
// gateway it holds no map at all and routes lookups to the owning shard,
// fanning batches out scatter-gather:
//
//	cellmapd -map cellmap.jsonl [-addr :8781]
//	cellmapd -snapshots DIR [-poll 10s] [-live-spool SPOOLDIR -refresh 30s]
//	cellmapd -snapshots DIR -federation-listen :8791 [-refresh 30s]
//	cellmapd -shard i/N -topology FILE -snapshots DIR
//	cellmapd -gateway -topology FILE
//
//	GET  /v1/lookup?ip=1.2.3.4[&gen=N]  (gen=N needs -snapshots)
//	POST /v1/lookup/batch
//	GET  /v1/info
//	GET  /v1/history?ip=1.2.3.4        (-snapshots)
//	GET  /v1/generations               (-snapshots)
//	POST /v1/reload                    (map-serving modes)
//	GET  /v1/cluster/health            (cluster modes)
//	GET  /metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"cellspot/internal/aschar"
	"cellspot/internal/cellmap"
	"cellspot/internal/classify"
	"cellspot/internal/cluster"
	"cellspot/internal/demand"
	"cellspot/internal/federation"
	"cellspot/internal/history"
	"cellspot/internal/live"
	"cellspot/internal/obs"
	"cellspot/internal/obs/httpmw"
	"cellspot/internal/snapshot"
	"cellspot/internal/world"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("cellmapd: ")
	os.Exit(run(os.Args[1:]))
}

// run carries the daemon lifecycle for the command-line arguments args and
// returns the process exit code, so deferred cleanup still executes on
// failure paths (log.Fatal and os.Exit both skip defers).
func run(args []string) int {
	fs := flag.NewFlagSet("cellmapd", flag.ExitOnError)
	mapPath := fs.String("map", "", "static map file from 'cellspot export'")
	addr := fs.String("addr", ":8781", "listen address")
	snapDir := fs.String("snapshots", "", "snapshot store directory; boot from CURRENT and hot-swap to new generations")
	poll := fs.Duration("poll", 10*time.Second, "snapshot store polling interval (0 disables polling)")
	jitterSeedFlag := fs.Uint64("poll-jitter-seed", 0, "seed for the ±10% poll jitter (0 derives one from host+pid)")
	liveSpool := fs.String("live-spool", "", "embed the live refresh loop, reading this beacond spool directory's sealed shards")
	fedListen := fs.String("federation-listen", "", "accept federated spool segments from remote collectors on this address")
	refresh := fs.Duration("refresh", live.DefaultInterval, "live refresh interval")
	windowDays := fs.Int("window-days", live.DefaultWindowDays, "sliding aggregation window in days")
	threshold := fs.Float64("threshold", classify.DefaultThreshold, "classifier cellular-ratio threshold")
	keep := fs.Int("keep", live.DefaultKeep, "published generations retained by pruning")
	worldSeed := fs.Uint64("world-seed", world.DefaultConfig().Seed, "synthetic world seed for live-mode side inputs")
	worldScale := fs.Float64("world-scale", world.DefaultConfig().Scale, "synthetic world scale for live-mode side inputs")
	topoPath := fs.String("topology", "", "cluster topology file (JSON), required by -shard and -gateway")
	shardSpec := fs.String("shard", "", "serve as cluster shard node i of N (i/N): refuse addresses outside this shard's partition")
	gatewayMode := fs.Bool("gateway", false, "serve as a cluster gateway: route lookups to shard nodes, no local map")
	gatewayDegraded := fs.Bool("gateway-degraded", false, "serve partial batch results (marked degraded) when a minority of shards is dark, instead of failing the whole batch")
	maxInflight := fs.Int("max-inflight", 0, "admission-control bound on concurrently served requests (0 = unbounded): shard lookups shed with 503, federation segments with 429")
	fs.Parse(args)

	if *gatewayMode {
		switch {
		case *shardSpec != "":
			log.Print("-gateway and -shard are mutually exclusive: a node is either a shard or a router")
			return 2
		case *topoPath == "":
			log.Print("-gateway requires -topology")
			return 2
		case *mapPath != "" || *snapDir != "" || *liveSpool != "":
			log.Print("-gateway holds no map; drop -map/-snapshots/-live-spool")
			return 2
		case *fedListen != "":
			log.Print("-gateway publishes no generations; drop -federation-listen")
			return 2
		}
		return runGateway(*topoPath, *addr, *gatewayDegraded)
	}
	if *shardSpec != "" && *topoPath == "" {
		log.Print("-shard requires -topology")
		return 2
	}
	if *liveSpool != "" && *snapDir == "" {
		log.Print("-live-spool requires -snapshots (generations must be published somewhere)")
		return 2
	}
	if *fedListen != "" && *snapDir == "" {
		log.Print("-federation-listen requires -snapshots (generations must be published somewhere)")
		return 2
	}
	if *fedListen != "" && *liveSpool != "" {
		log.Print("-federation-listen and -live-spool are mutually exclusive: one aggregator owns the store")
		return 2
	}
	if *mapPath == "" && *snapDir == "" {
		log.Print("nothing to serve: pass -map FILE and/or -snapshots DIR")
		return 2
	}

	reg := obs.NewRegistry()

	var store *snapshot.Store
	if *snapDir != "" {
		var err error
		if store, err = snapshot.Open(*snapDir); err != nil {
			log.Print(err)
			return 2
		}
	}

	d, source, err := bootDaemon(store, *mapPath, log.Printf)
	if err != nil {
		log.Print(err)
		return 2
	}
	m, gen := d.sw.Current()
	log.Printf("serving %s: %d prefixes, period %s, generation %d", source, m.Len(), m.Period, gen)
	d.sw.EnableMetrics(reg)

	// With a snapshot store behind the daemon, every retained generation is
	// servable: the history index answers gen=N lookups and timelines.
	var res cellmap.Resolver
	if store != nil {
		hist, err := history.New(history.Config{Store: store, Metrics: reg})
		if err != nil {
			log.Print(err)
			return 2
		}
		d.hist, res = hist, hist
		log.Printf("history index over %d retained generations", len(hist.Generations()))
	}

	mux := httpmw.NewMux(reg)
	var gate cellmap.Gate
	if *shardSpec != "" {
		topo, err := cluster.LoadTopology(*topoPath)
		if err != nil {
			log.Print(err)
			return 2
		}
		id, err := cluster.ParseShardID(*shardSpec, topo)
		if err != nil {
			log.Print(err)
			return 2
		}
		view, err := cluster.NewShardView(d.sw, topo.Ring(), id)
		if err != nil {
			log.Print(err)
			return 2
		}
		view.SetMaxInflight(*maxInflight)
		view.EnableMetrics(reg)
		view.MountHealth(mux)
		gate = view
		log.Printf("cluster node: shard %d of %d", id, topo.NumShards())
	}
	cellmap.Mount(mux, d.sw, res, gate)
	d.mountReload(mux)
	mux.Handle("GET /metrics", reg.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var wg sync.WaitGroup
	defer wg.Wait()

	d.watchHUP(ctx, &wg)

	if store != nil && *poll > 0 {
		seed := *jitterSeedFlag
		if seed == 0 {
			seed = jitterSeed()
		}
		log.Printf("polling store every %v ±10%% (jitter seed %d)", *poll, seed)
		d.pollStore(ctx, &wg, *poll, seed)
	}

	// Aggregation plane, local input: read the beacond spool and publish
	// generations into the store the poller above is watching.
	if *liveSpool != "" {
		inputs, err := liveInputs(*worldSeed, *worldScale)
		if err != nil {
			log.Print(err)
			return 2
		}
		agg, err := live.NewAggregator(live.Config{
			SpoolDir:   *liveSpool,
			WindowDays: *windowDays,
			Interval:   *refresh,
			Threshold:  *threshold,
			Inputs:     inputs,
			Store:      store,
			Keep:       *keep,
			Metrics:    reg,
			Logf:       log.Printf,
		})
		if err != nil {
			log.Print(err)
			return 2
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			agg.Run(ctx)
		}()
	}

	// Aggregation plane, federated input: a second listener receives
	// sealed-shard segments from remote collectors; the receiver folds
	// them exactly once into the same core, which publishes generations
	// into the store the poller above is watching.
	if *fedListen != "" {
		inputs, err := liveInputs(*worldSeed, *worldScale)
		if err != nil {
			log.Print(err)
			return 2
		}
		recv, err := federation.NewReceiver(federation.ReceiverConfig{
			WindowDays:  *windowDays,
			Threshold:   *threshold,
			Inputs:      inputs,
			Store:       store,
			Keep:        *keep,
			MaxInflight: *maxInflight,
			Interval:    *refresh,
			Metrics:     reg,
			Logf:        log.Printf,
		})
		if err != nil {
			log.Print(err)
			return 2
		}
		fedMux := httpmw.NewMux(reg)
		recv.MountRoutes(fedMux)
		fedSrv := &http.Server{
			Addr:    *fedListen,
			Handler: fedMux,
			// Segments run to ~17 MiB; give slow collector uplinks time,
			// but never a stuck one forever.
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       120 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       120 * time.Second,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			log.Printf("federation listening on %s", *fedListen)
			if err := fedSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("federation listener: %v", err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ctx.Done()
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := fedSrv.Shutdown(shutCtx); err != nil {
				log.Printf("federation shutdown: %v", err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			recv.Run(ctx)
		}()
	}

	return serve(ctx, stop, *addr, mux)
}

// runGateway is the -gateway lifecycle: no map, no store — just the
// router, its generation-keyed response cache, its health loop, and
// metrics.
func runGateway(topoPath, addr string, degraded bool) int {
	topo, err := cluster.LoadTopology(topoPath)
	if err != nil {
		log.Print(err)
		return 2
	}
	reg := obs.NewRegistry()
	g, err := cluster.NewGateway(cluster.GatewayConfig{
		Topology:      topo,
		Registry:      reg,
		AllowDegraded: degraded,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Print(err)
		return 2
	}
	mux := httpmw.NewMux(reg)
	g.Mount(mux)
	mux.Handle("GET /metrics", reg.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Run(ctx)
	}()
	reps := 0
	for _, s := range topo.Shards {
		reps += len(s.Replicas)
	}
	log.Printf("gateway over %d shards, %d replicas", topo.NumShards(), reps)
	return serve(ctx, stop, addr, mux)
}

// serve runs the HTTP server until ctx is done or the listener fails,
// then drains in-flight requests.
func serve(ctx context.Context, stop context.CancelFunc, addr string, handler http.Handler) int {
	srv := &http.Server{
		Addr:    addr,
		Handler: handler,
		// Lookups are tiny; a slow or stuck client must not pin a handler
		// goroutine forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	exit := 0
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case <-ctx.Done():
		log.Print("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("shutdown: %v", err)
			exit = 1
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Print(err)
			exit = 1
		}
	}
	stop() // unblock the signal/poll/aggregator goroutines before wg.Wait
	return exit
}

// liveInputs derives the live refresh loop's side inputs — DEMAND weights,
// the BGP-style block→AS mapping, whois countries, and the CAIDA-style AS
// filter rules — from the synthetic world, the same way beaconsim derives
// the traffic it posts. Seed and scale must match the beacon source for the
// mappings to line up.
func liveInputs(seed uint64, scale float64) (live.MapInputs, error) {
	wcfg := world.DefaultConfig()
	wcfg.Seed = seed
	wcfg.Scale = scale
	w, err := world.Generate(wcfg)
	if err != nil {
		return live.MapInputs{}, fmt.Errorf("generating world: %w", err)
	}
	ds, err := demand.Generate(w, demand.DefaultGenConfig())
	if err != nil {
		return live.MapInputs{}, fmt.Errorf("generating demand: %w", err)
	}
	return live.MapInputs{
		Demand:    ds,
		Rules:     aschar.DefaultRules(w.Snapshot),
		ASOf:      w.ASOf,
		CountryOf: w.CountryOf,
	}, nil
}

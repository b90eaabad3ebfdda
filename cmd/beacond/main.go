// Command beacond runs the RUM beacon collector: the HTTP endpoint behind
// the paper's BEACON dataset. It accepts NDJSON beacon batches on
// POST /v1/beacons, aggregates them per /24 and /48 block, optionally
// spools raw records to disk, reports counters on GET /v1/stats and spool
// shipping progress on GET /v1/spool/stats, answers liveness probes on
// GET /v1/healthz, and serves Prometheus metrics on GET /metrics.
//
// With -ship-to the collector joins a federation: a shipper goroutine
// watches the spool for sealed shards and ships them to a cellmapd
// aggregator (-federation-listen on the other side), checkpointing its
// offsets so a restart never re-ships acknowledged bytes.
//
// Usage:
//
//	beacond [-addr :8780] [-spool DIR] [-gzip] [-spool-max-records N]
//	        [-ship-to URL -collector-id ID [-ship-interval D] [-ship-segment-bytes N] [-ship-timeout D]]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"cellspot/internal/federation"
	"cellspot/internal/logio"
	"cellspot/internal/obs"
	"cellspot/internal/obs/httpmw"
	"cellspot/internal/rum"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("beacond: ")
	os.Exit(run())
}

// run carries the daemon lifecycle and returns the process exit code, so
// deferred cleanup still executes on failure paths (log.Fatalf and
// os.Exit both skip defers).
func run() int {
	addr := flag.String("addr", ":8780", "listen address")
	spoolDir := flag.String("spool", "", "spool raw records to this directory")
	gzipped := flag.Bool("gzip", false, "gzip spool files")
	spoolMax := flag.Int("spool-max-records", 500_000, "records per spool file before rotating")
	token := flag.String("token", "", "require this bearer token on beacon posts")
	shipTo := flag.String("ship-to", "", "ship sealed spool shards to this aggregator base URL (requires -spool and -collector-id)")
	collectorID := flag.String("collector-id", "", "this collector's identity in shipped manifests")
	shipInterval := flag.Duration("ship-interval", federation.DefaultShipInterval, "spool shipping poll interval")
	shipSegBytes := flag.Int("ship-segment-bytes", federation.DefaultSegmentBytes, "target shipped segment size in bytes")
	shipTimeout := flag.Duration("ship-timeout", federation.DefaultShipTimeout, "per-request ship deadline floor; each attempt gets this plus transfer time for the segment")
	flag.Parse()

	if *spoolMax <= 0 {
		log.Printf("-spool-max-records must be > 0, got %d", *spoolMax)
		return 2
	}
	if *shipTo != "" && *spoolDir == "" {
		log.Print("-ship-to requires -spool: only spooled records can be shipped")
		return 2
	}
	if (*shipTo != "") != (*collectorID != "") {
		log.Print("-ship-to and -collector-id go together")
		return 2
	}

	reg := obs.NewRegistry()
	opts := []rum.Option{rum.WithMetrics(reg)}
	if *spoolDir != "" {
		opts = append(opts, rum.WithSpool(logio.NewSpool(*spoolDir, logio.SpoolPrefix, *gzipped, *spoolMax)))
	}
	if *token != "" {
		opts = append(opts, rum.WithAuthToken(*token))
	}
	col := rum.NewCollector(opts...)

	var shipper *federation.Shipper
	if *shipTo != "" {
		var err error
		shipper, err = federation.NewShipper(federation.ShipperConfig{
			SpoolDir:     *spoolDir,
			CollectorID:  *collectorID,
			Target:       *shipTo,
			SegmentBytes: *shipSegBytes,
			Interval:     *shipInterval,
			ShipTimeout:  *shipTimeout,
			Metrics:      reg,
			Logf:         log.Printf,
		})
		if err != nil {
			log.Print(err)
			return 2
		}
	}

	mux := httpmw.NewMux(reg)
	col.MountRoutes(mux)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/spool/stats", func(w http.ResponseWriter, _ *http.Request) {
		var st federation.SpoolStats
		var err error
		switch {
		case shipper != nil:
			st, err = shipper.Stats()
		case *spoolDir != "":
			st, err = federation.ScanSpool(*spoolDir)
		}
		if err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})
	mux.Handle("GET /metrics", reg.Handler())

	srv := &http.Server{
		Addr:    *addr,
		Handler: mux,
		// A slow or stuck client must not pin a handler goroutine forever:
		// bound the header, the whole read (16 MiB batches from slow
		// edges), the response write, and keep-alive idle time.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var wg sync.WaitGroup
	if shipper != nil {
		log.Printf("shipping %s spool to %s as %s", *spoolDir, *shipTo, *collectorID)
		wg.Add(1)
		go func() {
			defer wg.Done()
			shipper.Run(ctx)
		}()
	}

	exit := 0
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
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
	stop() // unblock the shipper before waiting on it
	wg.Wait()
	// A spool-close failure must not suppress the final stats line: log
	// it, still emit the summary, and report the failure in the exit code.
	if err := col.Close(); err != nil {
		log.Printf("closing spool: %v", err)
		exit = 1
	}
	st := col.Stats()
	log.Printf("received %d records (%d rejected) across %d blocks", st.Received, st.Rejected, st.Blocks)
	return exit
}

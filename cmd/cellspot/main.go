// Command cellspot is the reproduction's workhorse CLI:
//
//	cellspot gen      -out DIR [-scale S] [-seed N] [-hits H] [-gzip]
//	    generate a synthetic world and write its BEACON spool, DEMAND
//	    dataset, BGP-style block→AS table, and ground-truth labels
//	cellspot classify -data DIR [-threshold 0.5]
//	    aggregate a BEACON spool from disk, classify blocks, score against
//	    the ground truth, and write detected cellular blocks
//	cellspot summary  [-scale S] [-seed N]
//	    run the full in-memory pipeline and print headline statistics
//	cellspot export   [-o cellmap.jsonl] [-scale S] [-seed N]
//	    run the pipeline and export the publishable cellular prefix map,
//	    with the blocks of ASes the AS filter drops left out
//	cellspot lookup   [-map cellmap.jsonl] ADDR...
//	    resolve addresses against an exported cellular map
//	cellspot country  [-scale S] [-seed N] [-top K] CC...
//	    per-country cellular profile with top operators
//	cellspot ingest   -dir DIR [-out DIR] [-policy FILE] [-strict] [-gzip] [-threshold 0.5]
//	    import a Zeek-style conn-log tree (TSV or JSONL, plain or gzip, one
//	    subdirectory per sensor), classify the measured traffic, and
//	    optionally write a beacon spool + derived datasets for the rest of
//	    the toolchain (classify, cellmapd -live-spool)
//	cellspot evolve   [-scenario NAME] [-out DIR] [-months 6] [-seed N] [-scale S] [-threshold 0.5] [-keep K] [-list]
//	    run a named evolution scenario (5G rollout, operator merger, CGNAT
//	    expansion, ...) over a generated world, print the monthly churn
//	    report, and with -out publish each month as a snapshot generation
//	    that cellmapd's /v1/history endpoint can replay
package main

import (
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"path/filepath"

	"cellspot"
	"cellspot/internal/aschar"
	"cellspot/internal/beacon"
	"cellspot/internal/cellmap"
	"cellspot/internal/classify"
	"cellspot/internal/demand"
	"cellspot/internal/evolve"
	"cellspot/internal/ingest"
	"cellspot/internal/logio"
	"cellspot/internal/netaddr"
	"cellspot/internal/pipeline"
	"cellspot/internal/report"
	"cellspot/internal/snapshot"
	"cellspot/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cellspot: ")
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "classify":
		err = runClassify(os.Args[2:])
	case "summary":
		err = runSummary(os.Args[2:])
	case "export":
		err = runExport(os.Args[2:])
	case "lookup":
		err = runLookup(os.Args[2:])
	case "country":
		err = runCountry(os.Args[2:])
	case "ingest":
		err = runIngest(os.Args[2:])
	case "evolve":
		err = runEvolve(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cellspot <gen|classify|summary|export|lookup|country|ingest|evolve> [flags]")
	os.Exit(2)
}

// runCountry prints per-country cellular profiles: the drill-down behind
// the paper's Figs 11–12.
func runCountry(args []string) error {
	fs := flag.NewFlagSet("country", flag.ExitOnError)
	scale := fs.Float64("scale", 0.01, "fraction of paper-scale block counts")
	seed := fs.Uint64("seed", 1, "world seed")
	top := fs.Int("top", 5, "operators to list per country")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("country: provide one or more ISO country codes")
	}

	cfg := cellspot.DefaultConfig()
	cfg.World.Scale = *scale
	cfg.World.Seed = *seed
	r, err := cellspot.Run(cfg)
	if err != nil {
		return err
	}
	for _, cc := range fs.Args() {
		cs := r.Macro.ByCountry[cc]
		if cs == nil {
			return fmt.Errorf("country: unknown code %q", cc)
		}
		t := report.NewTable(fmt.Sprintf("%s — %s (%s)", cc, cs.Country.Name, cs.Country.Continent.Name()),
			"Metric", "Value")
		t.Row("cellular fraction of demand", report.Pct(cs.CellFrac(), 1))
		t.Row("share of global cellular demand", report.Pct(r.Macro.CellShareOfGlobal(cc), 2))
		t.Row("detected cellular /24 | /48", fmt.Sprintf("%s | %s", report.Int(cs.Cell24), report.Int(cs.Cell48)))
		t.Row("active /24 | /48 in BEACON", fmt.Sprintf("%s | %s", report.Int(cs.Active24), report.Int(cs.Active48)))
		t.Row("mobile subscriptions (M)", report.F(cs.Country.SubscribersM, 1))
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		ops := report.NewTable("Identified cellular operators", "AS", "Name", "CFD", "Mixed", "Cell DU", "Public DNS")
		listed := 0
		for _, n := range aschar.RankByCellDU(r.Networks) {
			got, ok := r.CountryOf(n.ASN)
			if !ok || got != cc {
				continue
			}
			mixed := ""
			if !n.Dedicated {
				mixed = "yes"
			}
			pub := "-"
			if pu := r.PublicDNS[n.ASN]; pu != nil {
				pub = report.Pct(pu.PublicShare(), 1)
			}
			as, _ := r.World.Registry.Lookup(n.ASN)
			ops.Row(fmt.Sprintf("AS%d", n.ASN), as.Name, report.F(n.CFD(), 2), mixed,
				report.F(n.CellDU, 1), pub)
			listed++
			if listed >= *top {
				break
			}
		}
		if err := ops.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// runExport runs the pipeline and writes the publishable cellular map —
// aggregated CIDR prefixes with AS, country, ratio, and demand metadata —
// from the run's own detected set and AS-filter verdict (Result.Map), so
// blocks of ASes the AS filter drops are left out.
func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	out := fs.String("o", "cellmap.jsonl", "output map file")
	scale := fs.Float64("scale", 0.01, "fraction of paper-scale block counts")
	seed := fs.Uint64("seed", 1, "world seed")
	fs.Parse(args)

	cfg := cellspot.DefaultConfig()
	cfg.World.Scale = *scale
	cfg.World.Seed = *seed
	r, err := cellspot.Run(cfg)
	if err != nil {
		return err
	}
	m, err := r.Map("2016-12")
	if err != nil {
		return err
	}
	if err := m.WriteFile(*out); err != nil {
		return err
	}
	log.Printf("wrote %s: %d prefixes covering %.1f%% of demand (from %d detected blocks)",
		*out, m.Len(), m.TotalDU()/1000, r.Detected.Len())
	return nil
}

// runLookup loads an exported map and resolves addresses against it.
func runLookup(args []string) error {
	fs := flag.NewFlagSet("lookup", flag.ExitOnError)
	mapPath := fs.String("map", "cellmap.jsonl", "map file from 'cellspot export'")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("lookup: provide one or more IP addresses")
	}
	m, err := cellmap.ReadFile(*mapPath)
	if err != nil {
		return err
	}
	for _, arg := range fs.Args() {
		addr, err := netip.ParseAddr(arg)
		if err != nil {
			return fmt.Errorf("lookup: %w", err)
		}
		e, ok := m.Lookup(addr)
		if !ok {
			fmt.Printf("%s: not cellular\n", addr)
			continue
		}
		fmt.Printf("%s: cellular — %s (AS%d, %s, ratio %.2f, %.2f DU)\n",
			addr, e.Prefix, e.ASN, e.Country, e.Ratio, e.DU)
	}
	return nil
}

// truthRow is the on-disk ground-truth record for one block.
type truthRow struct {
	Block    string `json:"block"`
	ASN      uint32 `json:"asn"`
	Cellular bool   `json:"cellular"`
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "", "output directory (required)")
	scale := fs.Float64("scale", 0.002, "fraction of paper-scale block counts")
	seed := fs.Uint64("seed", 1, "world seed")
	hits := fs.Int("hits", 500_000, "beacon records to write")
	gzipped := fs.Bool("gzip", false, "gzip the spool files")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}

	wcfg := world.DefaultConfig()
	wcfg.Scale = *scale
	wcfg.Seed = *seed
	w, err := world.Generate(wcfg)
	if err != nil {
		return err
	}
	log.Printf("world: %d blocks, %d ASes, %d resolvers",
		len(w.Blocks), w.Registry.Len(), len(w.Resolvers))

	// BEACON spool: record-level stream.
	bcfg := beacon.DefaultGenConfig()
	bcfg.TotalHits = *hits
	bcfg.BaseHits = 8
	seq, err := beacon.Stream(w, bcfg)
	if err != nil {
		return err
	}
	spool := logio.NewSpool(*out, logio.SpoolPrefix, *gzipped, 200_000)
	var line []byte
	for rec := range seq {
		if line, err = beacon.AppendRecord(line[:0], rec); err != nil {
			return err
		}
		if err := spool.WriteLine(line); err != nil {
			return err
		}
	}
	if err := spool.Close(); err != nil {
		return err
	}
	log.Printf("beacon: %d records spooled", spool.Count())

	// DEMAND dataset.
	ds, err := demand.Generate(w, demand.DefaultGenConfig())
	if err != nil {
		return err
	}
	dw, err := logio.Create(filepath.Join(*out, "demand.jsonl"))
	if err != nil {
		return err
	}
	var werr error
	ds.Each(func(b netaddr.Block, du float64) {
		if werr == nil {
			werr = dw.Write(demand.BlockDU{Block: b, DU: du})
		}
	})
	if werr != nil {
		return werr
	}
	if err := dw.Close(); err != nil {
		return err
	}
	log.Printf("demand: %d blocks written", ds.Blocks())

	// Ground truth + BGP-style mapping.
	tw, err := logio.Create(filepath.Join(*out, "truth.jsonl"))
	if err != nil {
		return err
	}
	for _, bi := range w.Blocks {
		if err := tw.Write(truthRow{Block: bi.Block.String(), ASN: bi.ASN, Cellular: bi.Cellular}); err != nil {
			return err
		}
	}
	if err := tw.Close(); err != nil {
		return err
	}
	log.Printf("truth: %d blocks written", len(w.Blocks))
	return nil
}

func runClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	dir := fs.String("data", "", "directory produced by 'cellspot gen' (required)")
	threshold := fs.Float64("threshold", classify.DefaultThreshold, "cellular ratio threshold")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("classify: -data is required")
	}

	agg := beacon.NewAggregate()
	refused := 0
	st, err := logio.DecodeSpool(*dir, logio.SpoolPrefix, true, func(r beacon.Record) error {
		if r.Validate() != nil {
			refused++
			return nil
		}
		agg.AddRecord(r)
		return nil
	})
	if err != nil {
		return err
	}
	log.Printf("beacon: %d records aggregated (%d malformed or invalid lines skipped), %d blocks",
		st.Records-refused, st.Bad+refused, agg.Blocks())

	cls, err := classify.New(*threshold)
	if err != nil {
		return err
	}
	detected := cls.Classify(agg)

	// Score against ground truth when available.
	truth := map[netaddr.Block]bool{}
	if _, err := logio.DecodeFile(filepath.Join(*dir, "truth.jsonl"), false, func(r truthRow) error {
		b, err := netaddr.ParseBlock(r.Block)
		if err != nil {
			return err
		}
		truth[b] = r.Cellular
		return nil
	}); err != nil {
		log.Printf("no usable ground truth (%v); skipping scoring", err)
	} else {
		m := classify.Evaluate(detected, truth, nil)
		fmt.Printf("blocks detected cellular: %d\n", detected.Len())
		fmt.Printf("precision %.3f  recall %.3f  F1 %.3f (count-weighted, vs ground truth)\n",
			m.Precision(), m.Recall(), m.F1())
	}

	outPath := filepath.Join(*dir, "detected.jsonl")
	if err := writeDetected(outPath, detected); err != nil {
		return err
	}
	log.Printf("wrote %s", outPath)
	return nil
}

// writeDetected writes one {"block": CIDR} row per detected block, in
// canonical block order so the file is the same bytes on every run.
func writeDetected(path string, detected netaddr.Set) error {
	blocks := make([]netaddr.Block, 0, detected.Len())
	for b := range detected {
		blocks = append(blocks, b)
	}
	netaddr.SortBlocks(blocks)
	out, err := logio.Create(path)
	if err != nil {
		return err
	}
	for _, b := range blocks {
		if err := out.Write(struct {
			Block string `json:"block"`
		}{b.String()}); err != nil {
			out.Close() // the write error is the one to report
			return err
		}
	}
	return out.Close()
}

// runIngest imports foreign conn logs and runs the classification stage
// over the measured traffic — the "run the paper's method on your own
// Zeek logs" entry point. With -out it additionally writes a beacon-record
// spool (prefix logio.SpoolPrefix, so 'cellspot classify -data' and
// cellmapd's live spool input consume it unchanged), the normalized DEMAND
// dataset, and the detected cellular blocks.
func runIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	dir := fs.String("dir", "", "conn-log directory (required)")
	out := fs.String("out", "", "output directory for spool + derived datasets")
	policyPath := fs.String("policy", "", "subnet policy JSON ({\"always_include\": [...], \"never_include\": [...]})")
	strict := fs.Bool("strict", false, "abort on the first malformed line")
	gzipped := fs.Bool("gzip", false, "gzip the output spool")
	threshold := fs.Float64("threshold", classify.DefaultThreshold, "cellular ratio threshold")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("ingest: -dir is required")
	}

	cfg := ingest.Config{Dir: *dir, Strict: *strict, Logf: log.Printf}
	if *policyPath != "" {
		p, err := ingest.LoadPolicy(*policyPath)
		if err != nil {
			return err
		}
		cfg.Policy = p
	}

	var spool *logio.Spool
	var werr error
	var hook func(beacon.Record)
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		spool = logio.NewSpool(*out, logio.SpoolPrefix, *gzipped, 200_000)
		var line []byte
		hook = func(rec beacon.Record) {
			if werr == nil {
				if line, werr = beacon.AppendRecord(line[:0], rec); werr == nil {
					werr = spool.WriteLine(line)
				}
			}
		}
	}
	r, err := pipeline.RunForeign(cfg, *threshold, hook)
	if err != nil {
		if spool != nil {
			spool.Close()
		}
		return err
	}
	if spool != nil {
		if werr != nil {
			spool.Close()
			return fmt.Errorf("ingest: write spool: %w", werr)
		}
		if err := spool.Close(); err != nil {
			return err
		}
		log.Printf("beacon: %d records spooled to %s", spool.Count(), *out)
	}

	for _, sensor := range r.Stats.Sensors() {
		ss := r.Stats.PerSensor[sensor]
		log.Printf("sensor %s: %d files, %d records, %d bad, %d filtered",
			sensor, ss.Files, ss.Records, ss.Bad, ss.Filtered)
	}
	fmt.Printf("imported %d records from %d files (%d malformed, %d filtered by policy)\n",
		r.Stats.Records, r.Stats.Files, r.Stats.Bad, r.Stats.Filtered)
	fmt.Printf("active blocks: %d /24 + %d /48; detected cellular: %d /24 + %d /48\n",
		r.Beacon.CountFamily(netaddr.IPv4), r.Beacon.CountFamily(netaddr.IPv6),
		r.Detected.CountFamily(netaddr.IPv4), r.Detected.CountFamily(netaddr.IPv6))

	if *out == "" {
		return nil
	}
	dw, err := logio.Create(filepath.Join(*out, "demand.jsonl"))
	if err != nil {
		return err
	}
	r.Demand.Each(func(b netaddr.Block, du float64) {
		if werr == nil {
			werr = dw.Write(demand.BlockDU{Block: b, DU: du})
		}
	})
	if werr != nil {
		return werr
	}
	if err := dw.Close(); err != nil {
		return err
	}
	detPath := filepath.Join(*out, "detected.jsonl")
	if err := writeDetected(detPath, r.Detected); err != nil {
		return err
	}
	log.Printf("wrote %s and %s", filepath.Join(*out, "demand.jsonl"), detPath)
	return nil
}

// runEvolve runs a named evolution scenario, prints the offline churn
// report, and (with -out) publishes each month as one snapshot generation
// so a cellmapd pointed at the store serves the scenario's history.
func runEvolve(args []string) error {
	fs := flag.NewFlagSet("evolve", flag.ExitOnError)
	name := fs.String("scenario", "baseline", "scenario name (see -list)")
	list := fs.Bool("list", false, "list available scenarios and exit")
	out := fs.String("out", "", "snapshot store directory to publish monthly generations into")
	months := fs.Int("months", 6, "months to simulate")
	seed := fs.Uint64("seed", 11, "evolution seed")
	scale := fs.Float64("scale", 0.002, "fraction of paper-scale block counts")
	threshold := fs.Float64("threshold", classify.DefaultThreshold, "cellular ratio threshold")
	keep := fs.Int("keep", 0, "prune the store to this many generations after publishing (0 = keep all)")
	fs.Parse(args)

	if *list {
		t := report.NewTable("Evolution scenarios", "Name", "Description")
		for _, sc := range evolve.Scenarios() {
			t.Row(sc.Name, sc.Description)
		}
		return t.Render(os.Stdout)
	}
	sc, ok := evolve.ScenarioByName(*name)
	if !ok {
		return fmt.Errorf("evolve: unknown scenario %q (try -list)", *name)
	}

	wcfg := world.DefaultConfig()
	wcfg.Scale = *scale
	wcfg.Seed = *seed
	w, err := world.Generate(wcfg)
	if err != nil {
		return err
	}
	cfg := evolve.DefaultConfig()
	cfg.Seed = *seed
	cfg.Months = *months
	cfg.Threshold = *threshold
	run, err := evolve.RunScenario(w, sc, cfg)
	if err != nil {
		return err
	}

	mt := report.NewTable(fmt.Sprintf("Scenario %q — monthly maps", sc.Name),
		"Month", "Prefixes", "Cell DU", "5G share")
	for i, m := range run.Maps {
		five := "-"
		if s, ok := evolve.FiveGShare(m); ok {
			five = report.Pct(s, 1)
		}
		mt.Row(run.Months[i].String(), report.Int(m.Len()), report.F(m.TotalDU(), 1), five)
	}
	if err := mt.Render(os.Stdout); err != nil {
		return err
	}
	ct := report.NewTable("Month-over-month churn", "From", "To", "Added", "Removed", "Moved")
	for _, mc := range run.MapChurns() {
		ct.Row(mc.FromPeriod, mc.ToPeriod, report.Int(mc.Added), report.Int(mc.Removed), report.Int(mc.Moved))
	}
	if err := ct.Render(os.Stdout); err != nil {
		return err
	}

	if *out == "" {
		return nil
	}
	store, err := snapshot.Open(*out)
	if err != nil {
		return err
	}
	seqs, err := run.Publish(store, *keep)
	if err != nil {
		return err
	}
	log.Printf("published %d generations into %s (seq %d..%d); serve with: cellmapd -snapshots %s",
		len(seqs), *out, seqs[0], seqs[len(seqs)-1], *out)
	return nil
}

func runSummary(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	scale := fs.Float64("scale", 0.01, "fraction of paper-scale block counts")
	seed := fs.Uint64("seed", 1, "world seed")
	fs.Parse(args)

	cfg := cellspot.DefaultConfig()
	cfg.World.Scale = *scale
	cfg.World.Seed = *seed
	r, err := cellspot.Run(cfg)
	if err != nil {
		return err
	}
	mixed, ded := 0, 0
	var mixedDU, totDU float64
	for _, n := range r.Networks {
		if n.Dedicated {
			ded++
		} else {
			mixed++
			mixedDU += n.CellDU
		}
		totDU += n.CellDU
	}
	t := report.NewTable("Cell Spotting — headline summary", "Metric", "Measured", "Paper")
	t.Row("global cellular demand share", report.Pct(r.Macro.GlobalCellFrac(), 1), "16.2%")
	t.Row("identified cellular ASes", report.Int(len(r.Networks)), "668")
	t.Row("mixed cellular ASes", report.Pct(float64(mixed)/float64(mixed+ded), 1), "58.6%")
	t.Row("cellular demand from mixed ASes", report.Pct(mixedDU/totDU, 1), "32.7%")
	t.Row("detected cellular /24 blocks", report.Int(r.Detected.CountFamily(netaddr.IPv4)),
		fmt.Sprintf("350,687 x scale = %s", report.Int(int(350687**scale))))
	t.Row("detected cellular /48 blocks", report.Int(r.Detected.CountFamily(netaddr.IPv6)),
		fmt.Sprintf("23,230 x scale = %s", report.Int(int(23230**scale))))
	return t.Render(os.Stdout)
}

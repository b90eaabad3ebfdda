package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cellspot/internal/aschar"
	"cellspot/internal/beacon"
	"cellspot/internal/cellmap"
	"cellspot/internal/demand"
	"cellspot/internal/federation"
	"cellspot/internal/live"
	"cellspot/internal/logio"
	"cellspot/internal/netaddr"
	"cellspot/internal/obs"
	"cellspot/internal/rum"
	"cellspot/internal/snapshot"
	"cellspot/internal/world"
)

// The fresh workload: one client makes posted beacons visible, round after
// round: POST roundRecords records to the collector (which seals one spool
// shard), ship the shard, fold and publish a generation, load it, swap it
// in, and look up a posted address. Every hop is a direct call; no poll or
// tick timer runs.
//
// Set-up posts freshWarm shuffled records of one month. The receiver's
// window then holds the month's last live.DefaultWindowDays days. The timed
// rounds post those days' records again, day by day in order, with their
// timestamps moved on by whole windows: each new day moves the window's
// anchor on by one day and drops the oldest day, whose records had the same
// blocks and counts. The window therefore has the same shape in every
// round, and a round's work does not grow with the rounds before it.
const (
	freshWarm    = 300_000
	roundRecords = 2000
	// roundFloor bounds a round's duration from below when sizing the
	// round bodies: a run of S seconds gets at least S/roundFloor rounds
	// of distinct days (a round takes ~250 ms on the reference runner).
	// Past them the rounds wrap around to days older than the window.
	roundFloor = 100 * time.Millisecond
)

type freshInst struct {
	o      opts
	warm   [][]byte // NDJSON bodies posted during set-up
	rounds [][]byte // NDJSON bodies posted by the timed rounds
	probes []netip.Addr
	pl     *plane
	round  int
	snap   map[string]float64
}

// plane is the program under test: collector with spool, shipper,
// federation receiver with its snapshot store, and a lookup server over a
// Swappable map.
type plane struct {
	dir       string
	reg       *obs.Registry
	col       *rum.Collector
	ship      *federation.Shipper
	recv      *federation.Receiver
	sw        *cellmap.Swappable
	srvs      []*http.Server
	colURL    string
	recvURL   string
	lookupURL string
	client    *http.Client
	posted    int
	last      *cellmap.Map
}

func startFresh(o opts) (instance, []float64, error) {
	f := &freshInst{o: o}
	if err := f.makeBodies(); err != nil {
		return nil, nil, err
	}
	n := 0
	pl, secs, err := timedSetup(setupReps, func() (*plane, error) {
		n++
		return newPlane(o, filepath.Join(o.workDir, fmt.Sprintf("plane-%d", n)), f.warm)
	}, (*plane).close)
	if err != nil {
		return nil, nil, err
	}
	f.pl = pl
	f.warm = nil
	return f, secs, nil
}

// makeBodies streams beacon records from the seed's world the way
// cmd/beaconsim does, shuffles them, and encodes them as the NDJSON bodies
// rum.Client would post: the month's records for the warm window, then the
// window's days, moved on by one window per cycle, for the rounds.
func (f *freshInst) makeBodies() error {
	w, err := freshWorld(f.o)
	if err != nil {
		return err
	}
	bcfg := beacon.DefaultGenConfig()
	bcfg.Seed = f.o.seed
	bcfg.TotalHits = freshWarm
	bcfg.BaseHits = 8
	seq, err := beacon.Stream(w, bcfg)
	if err != nil {
		return err
	}
	recs := make([]beacon.Record, 0, freshWarm)
	for rec := range seq {
		recs = append(recs, rec)
		if len(recs) == freshWarm {
			break
		}
	}
	rng := rand.New(rand.NewPCG(f.o.seed, 0xf7e5))
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	recs = recs[:len(recs)/roundRecords*roundRecords]
	if f.warm, err = encodeBodies(recs); err != nil {
		return err
	}

	// The receiver's window buckets records by UTC day and keeps the
	// DefaultWindowDays days up to the newest one.
	day := func(r beacon.Record) int64 { return r.Time.Unix() / 86400 }
	newest := int64(0)
	for _, rec := range recs {
		newest = max(newest, day(rec))
	}
	var window []beacon.Record
	for _, rec := range recs {
		if day(rec) > newest-live.DefaultWindowDays {
			window = append(window, rec)
		}
	}
	sort.SliceStable(window, func(i, j int) bool { return day(window[i]) < day(window[j]) })
	if len(window) < roundRecords {
		return fmt.Errorf("the warm window holds %d records, fewer than one round of %d", len(window), roundRecords)
	}
	rounds := int(f.o.dur/roundFloor) + 1
	cycles := (rounds*roundRecords + len(window) - 1) / len(window)
	moved := make([]beacon.Record, 0, cycles*len(window))
	for c := 1; c <= cycles; c++ {
		shift := time.Duration(c*live.DefaultWindowDays) * 24 * time.Hour
		for _, rec := range window {
			rec.Time = rec.Time.Add(shift)
			moved = append(moved, rec)
		}
	}
	if f.rounds, err = encodeBodies(moved); err != nil {
		return err
	}
	for start := 0; start+roundRecords <= len(moved); start += roundRecords {
		f.probes = append(f.probes, moved[start].IP)
	}
	return nil
}

// encodeBodies encodes recs as NDJSON bodies of roundRecords records each;
// a last, partial body is left out.
func encodeBodies(recs []beacon.Record) ([][]byte, error) {
	var bodies [][]byte
	for start := 0; start+roundRecords <= len(recs); start += roundRecords {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, rec := range recs[start : start+roundRecords] {
			if err := enc.Encode(rec); err != nil {
				return nil, err
			}
		}
		bodies = append(bodies, buf.Bytes())
	}
	return bodies, nil
}

func freshWorld(o opts) (*world.World, error) {
	wcfg := world.DefaultConfig()
	wcfg.Seed = o.seed
	wcfg.Scale = o.scale
	return world.Generate(wcfg)
}

// liveInputs derives the map-build side inputs from the seed's world, as
// cmd/cellmapd does for its live and federation modes.
func liveInputs(o opts) (live.MapInputs, error) {
	w, err := freshWorld(o)
	if err != nil {
		return live.MapInputs{}, err
	}
	ds, err := demand.Generate(w, demand.DefaultGenConfig())
	if err != nil {
		return live.MapInputs{}, err
	}
	return live.MapInputs{
		Demand: ds,
		Rules:  aschar.DefaultRules(w.Snapshot),
		ASOf: func(b netaddr.Block) (uint32, bool) {
			bi := w.BlockIndex[b]
			if bi == nil {
				return 0, false
			}
			return bi.ASN, true
		},
		CountryOf: func(asNum uint32) (string, bool) {
			a, ok := w.Registry.Lookup(asNum)
			if !ok {
				return "", false
			}
			return a.Country, true
		},
	}, nil
}

// newPlane starts the collection-to-serving plane in dir, posts the warm
// window and publishes and loads the first generation.
func newPlane(o opts, dir string, warm [][]byte) (*plane, error) {
	in, err := liveInputs(o)
	if err != nil {
		return nil, err
	}
	p := &plane{dir: dir, reg: obs.NewRegistry(), client: &http.Client{Timeout: 30 * time.Second}}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()
	store, err := snapshot.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	p.recv, err = federation.NewReceiver(federation.ReceiverConfig{
		Inputs:  in,
		Store:   store,
		Metrics: p.reg,
	})
	if err != nil {
		return nil, err
	}
	recvMux := http.NewServeMux()
	p.recv.MountRoutes(recvMux)
	if p.recvURL, err = p.listen(recvMux); err != nil {
		return nil, err
	}
	spoolDir := filepath.Join(dir, "spool")
	p.col = rum.NewCollector(
		rum.WithSpool(logio.NewSpool(spoolDir, live.DefaultSpoolPrefix, false, roundRecords)),
		rum.WithMetrics(p.reg))
	if p.colURL, err = p.listen(p.col.Handler()); err != nil {
		return nil, err
	}
	p.ship, err = federation.NewShipper(federation.ShipperConfig{
		SpoolDir:    spoolDir,
		CollectorID: "perfbench",
		Target:      p.recvURL,
		StateFile:   filepath.Join(dir, "shipper.json"),
		Metrics:     p.reg,
	})
	if err != nil {
		return nil, err
	}
	p.sw = cellmap.NewSwappable(cellmap.Empty(""), 0)
	lookupMux := http.NewServeMux()
	cellmap.MountSource(lookupMux, p.sw)
	if p.lookupURL, err = p.listen(lookupMux); err != nil {
		return nil, err
	}
	for _, body := range warm {
		if err := p.post(body, roundRecords); err != nil {
			return nil, err
		}
	}
	gen, m, err := p.publish(nil, span{})
	if err != nil {
		return nil, err
	}
	p.swapIn(m, gen.Seq)
	ok = true
	return p, nil
}

func (p *plane) listen(h http.Handler) (string, error) {
	srv, addr, err := listen(h)
	if err != nil {
		return "", err
	}
	p.srvs = append(p.srvs, srv)
	return "http://" + addr, nil
}

func (p *plane) close() {
	for _, srv := range p.srvs {
		srv.Close()
	}
	p.client.CloseIdleConnections()
	if p.col != nil {
		p.col.Close()
	}
	os.RemoveAll(p.dir)
}

// post sends one NDJSON body to the collector.
func (p *plane) post(body []byte, records int) error {
	resp, err := p.client.Post(p.colURL+"/v1/beacons", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("collector: %s: %s", resp.Status, msg)
	}
	p.posted += records
	return nil
}

// publish ships, folds and publishes what was posted, then loads the new
// generation's map. Each hop is a child span of parent.
func (p *plane) publish(tr *tracer, parent span) (snapshot.Generation, *cellmap.Map, error) {
	sp := tr.begin("federation.ship", parent.ID, parent.Req)
	_, err := p.ship.PollOnce(context.Background())
	tr.finish(sp, 0)
	if err != nil {
		return snapshot.Generation{}, nil, err
	}
	sp = tr.begin("federation.tick", parent.ID, parent.Req)
	ref, err := p.recv.Tick()
	tr.finish(sp, ref.WindowRecords)
	if err != nil {
		return snapshot.Generation{}, nil, err
	}
	if !ref.Published {
		return snapshot.Generation{}, nil, fmt.Errorf("tick published nothing")
	}
	sp = tr.begin("live.load", parent.ID, parent.Req)
	m, err := live.ReadGenerationMap(ref.Generation)
	tr.finish(sp, ref.Entries)
	return ref.Generation, m, err
}

func (p *plane) swapIn(m *cellmap.Map, seq uint64) {
	p.sw.Swap(m, seq)
	p.last = m
}

// lookup asks the lookup server for addr and checks that the answer comes
// from generation seq and equals a direct lookup in that generation's map.
func (p *plane) lookup(addr netip.Addr, seq uint64) error {
	resp, err := p.client.Get(p.lookupURL + "/v1/lookup?ip=" + addr.String())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	want, err := json.Marshal(cellmap.LookupAddr(p.last, seq, addr, addr.String()))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(bytes.TrimSpace(got), want) {
		return fmt.Errorf("lookup %s: status %d, got %s, want %s", addr, resp.StatusCode, bytes.TrimSpace(got), want)
	}
	return nil
}

func (f *freshInst) run(d time.Duration, tr *tracer) []sample {
	if tr != nil {
		f.snap = f.counters()
	}
	var ss []sample
	start := time.Now()
	for deadline := start.Add(d); time.Now().Before(deadline); f.round++ {
		k := f.round % len(f.rounds)
		t0 := time.Now()
		root := tr.begin("fresh.round", 0, tr.newReq())
		err := f.visibleRound(k, tr, root)
		tr.finish(root, roundRecords)
		t1 := time.Now()
		s := sample{at: t1.Sub(start), lat: t1.Sub(t0), items: roundRecords, ok: err == nil}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: fresh round %d: %v\n", f.round, err)
			s.items = 0
		}
		ss = append(ss, s)
	}
	return ss
}

func (f *freshInst) visibleRound(k int, tr *tracer, root span) error {
	p := f.pl
	sp := tr.begin("rum.post", root.ID, root.Req)
	err := p.post(f.rounds[k], roundRecords)
	tr.finish(sp, roundRecords)
	if err != nil {
		return err
	}
	gen, m, err := p.publish(tr, root)
	if err != nil {
		return err
	}
	sp = tr.begin("cellmap.swap_visible", root.ID, root.Req)
	p.swapIn(m, gen.Seq)
	err = p.lookup(f.probes[k], gen.Seq)
	tr.finish(sp, 0)
	return err
}

func (f *freshInst) counters() map[string]float64 {
	reg := f.pl.reg
	fold := reg.Histogram("federation_recv_fold_seconds", "", nil)
	return map[string]float64{
		"fold_s":     fold.Sum(),
		"fold_n":     float64(fold.Count()),
		"bytes":      float64(reg.Counter("federation_recv_bytes_total", "").Value()),
		"folded":     float64(reg.Counter("federation_recv_records_total", "").Value()),
		"duplicates": float64(reg.Counter("federation_recv_duplicates_total", "").Value()),
		"rejects":    float64(reg.Counter("federation_recv_rejects_total", "").Value()),
		"bad_lines":  float64(reg.Counter("federation_recv_bad_lines_total", "").Value()),
		"rum_reject": float64(reg.Counter("rum_records_rejected_total", "").Value()),
		"posted":     float64(f.pl.posted),
	}
}

func (f *freshInst) layers(tr *tracer, ops int) map[string]float64 {
	now := f.counters()
	delta := func(k string) float64 { return now[k] - f.snap[k] }
	spans := tr.byName()
	p50 := func(name string) float64 { return ms(pct(durations(spans[name]), 0.5)) }
	ticks := spans["federation.tick"]
	loads := spans["live.load"]
	out := map[string]float64{
		"rum.post_ms_p50":               p50("rum.post"),
		"federation.ship_ms_p50":        p50("federation.ship"),
		"federation.fold_ms_mean":       1000 * ratio(delta("fold_s"), delta("fold_n")),
		"federation.bytes_per_round":    ratio(delta("bytes"), float64(ops)),
		"federation.folded_over_posted": ratio(delta("folded"), delta("posted")),
		"federation.tick_ms_p50":        p50("federation.tick"),
		"live.load_ms_p50":              p50("live.load"),
		"cellmap.swap_visible_ms_p50":   p50("cellmap.swap_visible"),
	}
	if len(ticks) > 0 {
		out["federation.window_records"] = float64(ticks[len(ticks)-1].N)
	}
	if len(loads) > 0 {
		out["cellmap.entries"] = float64(loads[len(loads)-1].N)
	}
	return out
}

// finish checks that every posted record was folded exactly once. (Folded
// records older than the window's span are then dropped by the window's
// retention contract, as in cmd/cellmapd.)
func (f *freshInst) finish() (float64, []string) {
	f.rounds = nil
	heap := liveHeapMB()
	c := f.counters()
	var problems []string
	if c["folded"] != c["posted"] {
		problems = append(problems, fmt.Sprintf("receiver folded %.0f records, %.0f were posted", c["folded"], c["posted"]))
	}
	for _, k := range []string{"duplicates", "rejects", "bad_lines", "rum_reject"} {
		if c[k] != 0 {
			problems = append(problems, fmt.Sprintf("%s = %.0f, want 0", k, c[k]))
		}
	}
	return heap, problems
}

func (f *freshInst) close() { f.pl.close() }

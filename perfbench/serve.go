package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cellspot/internal/aschar"
	"cellspot/internal/cellmap"
	"cellspot/internal/cluster"
	"cellspot/internal/mapbuild"
	"cellspot/internal/netaddr"
	"cellspot/internal/obs"
	"cellspot/internal/obs/httpmw"
	"cellspot/internal/pipeline"
)

// The serve workload: a closed loop of serveClients clients, each posting
// 64-address batches to a cluster gateway over 3 shards × 2 replicas.
// About 80% of each batch repeats (Zipf over the world's blocks, so the
// gateway cache answers it once warm) and 20% is uniform random IPv4 that
// never hits. Every swapEvery batches all replicas move to a new
// generation, so the cache's invalidate-and-refill path runs beside reads.
const (
	serveClients  = 2
	serveShards   = 3
	serveReplicas = 2
	batchSize     = 64
	batchUniform  = 13 // ~20% of batchSize
	batchPool     = 8192
	// swapEvery is fixed by the measurement: the largest power of two
	// below one 1-second window's batches on the reference runner
	// (2,300-2,700), so every window holds about one swap and its
	// refill, and a quarter of the pool. cmd/cellmapd publishes at most
	// every 30 s, fewer than one swap per run; see README.md.
	swapEvery = 2048
	zipfS     = 1.1
	// gatewayCache is cmd/cellmapd's -gateway-cache default.
	gatewayCache = 65536
	// spanHeader carries "<req>/<parent span>" across an HTTP hop in
	// traced runs.
	spanHeader = "X-Perfbench-Span"
)

type serveBatch struct {
	body []byte
	want uint64 // hash of the expected answer, generation digits skipped
}

type serveInst struct {
	fl       *fleet
	batches  []serveBatch
	next     atomic.Int64
	gen      atomic.Uint64
	swapMu   sync.Mutex
	client   *http.Client
	snap     map[string]float64 // registry values at the start of a traced phase
	snapAddr [serveShards]int64
}

// fleet is the program under test: shards, replicas and the gateway, all
// serving over loopback from this process.
type fleet struct {
	m        *cellmap.Map
	blocks   []netaddr.Block // the world's blocks, until the request pool is built
	reg      *obs.Registry
	gw       *cluster.Gateway
	gwURL    string
	sws      []*cellmap.Swappable
	srvs     []*http.Server
	stop     context.CancelFunc
	health   sync.WaitGroup
	shardOf  map[string]int // replica host:port -> shard
	tr       atomic.Pointer[tracer]
	addrs    [serveShards]atomic.Int64 // addresses sent per shard, traced runs
	shardTxp *http.Transport
}

func startServe(o opts) (instance, []float64, error) {
	fl, secs, err := timedSetup(setupReps, func() (*fleet, error) { return newFleet(o) }, (*fleet).close)
	if err != nil {
		return nil, nil, err
	}
	s := &serveInst{fl: fl}
	s.gen.Store(1)
	if err := s.makeBatches(o.seed); err != nil {
		fl.close()
		return nil, nil, err
	}
	s.client = &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
	}
	return s, secs, nil
}

// newFleet runs the offline pipeline, builds the map, and mounts it on
// every replica behind a gateway with cmd/cellmapd's gateway defaults.
func newFleet(o opts) (*fleet, error) {
	cfg := pipeline.DefaultConfig()
	cfg.World.Scale = o.scale
	cfg.World.Seed = o.seed
	r, err := pipeline.Run(cfg)
	if err != nil {
		return nil, err
	}
	m, err := mapbuild.Build(r.Beacon, cfg.Threshold, "2016-12", mapbuild.Inputs{
		Demand:    r.Demand,
		Rules:     aschar.DefaultRules(r.World.Snapshot),
		ASOf:      r.ASOf,
		CountryOf: r.CountryOf,
	})
	if err != nil {
		return nil, err
	}
	f := &fleet{m: m, reg: obs.NewRegistry(), shardOf: make(map[string]int)}
	for _, bi := range r.World.Blocks {
		f.blocks = append(f.blocks, bi.Block)
	}
	topo := cluster.Topology{Format: cluster.TopologyFormat}
	ring := cluster.NewRing(serveShards, cluster.DefaultVNodes)
	for s := 0; s < serveShards; s++ {
		var urls []string
		for j := 0; j < serveReplicas; j++ {
			sw := cellmap.NewSwappable(m, 1)
			view, err := cluster.NewShardView(sw, ring, s)
			if err != nil {
				f.close()
				return nil, err
			}
			mux := http.NewServeMux()
			cluster.MountShard(mux, view)
			addr, err := f.listen(f.shardHandler(mux))
			if err != nil {
				f.close()
				return nil, err
			}
			f.sws = append(f.sws, sw)
			f.shardOf[addr] = s
			urls = append(urls, "http://"+addr)
		}
		topo.Shards = append(topo.Shards, cluster.ShardSpec{Replicas: urls})
	}
	// The gateway's shard client is cluster's default (2s timeout over a
	// default transport) with a span-recording hop in front of it.
	f.shardTxp = http.DefaultTransport.(*http.Transport).Clone()
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Topology:  topo,
		Registry:  f.reg,
		CacheSize: gatewayCache,
		Client:    &http.Client{Timeout: 2 * time.Second, Transport: f},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	mux := httpmw.NewMux(f.reg)
	gw.Mount(mux)
	addr, err := f.listen(f.gatewayHandler(mux))
	if err != nil {
		f.close()
		return nil, err
	}
	f.gwURL = "http://" + addr + "/v1/lookup/batch"
	ctx, cancel := context.WithCancel(context.Background())
	f.stop = cancel
	gw.CheckNow(ctx)
	f.health.Add(1)
	go func() {
		defer f.health.Done()
		gw.Run(ctx)
	}()
	return f, nil
}

func (f *fleet) listen(h http.Handler) (string, error) {
	srv, addr, err := listen(h)
	if err != nil {
		return "", err
	}
	f.srvs = append(f.srvs, srv)
	return addr, nil
}

// listen serves h on a loopback port until the returned server is closed.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

func (f *fleet) close() {
	if f.stop != nil {
		f.stop()
		f.health.Wait()
	}
	for _, srv := range f.srvs {
		srv.Close()
	}
	if f.shardTxp != nil {
		f.shardTxp.CloseIdleConnections()
	}
}

type spanRef struct{ req, id uint64 }

type spanCtxKey struct{}

func parseSpanHeader(h string) (spanRef, bool) {
	a, b, ok := strings.Cut(h, "/")
	if !ok {
		return spanRef{}, false
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	return spanRef{req, id}, err1 == nil && err2 == nil
}

func (r spanRef) header() string { return fmt.Sprintf("%d/%d", r.req, r.id) }

// gatewayHandler times the gateway's handling of a traced batch and hands
// the span to the shard hop through the request context.
func (f *fleet) gatewayHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := f.tr.Load()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		ref, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		sp := tr.begin("cluster.gateway", ref.id, ref.req)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanRef{ref.req, sp.ID})))
		tr.finish(sp, 0)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

// shardHandler times a shard's handling of a traced request; the span's
// count is the response bytes.
func (f *fleet) shardHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := f.tr.Load()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		ref, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		sp := tr.begin("cellmap.shard", ref.id, ref.req)
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		tr.finish(sp, cw.n)
	})
}

// RoundTrip makes the fleet the gateway's shard transport: a traced
// request's shard round trip becomes a span (ended when the gateway closes
// the body), counted in addresses.
func (f *fleet) RoundTrip(r *http.Request) (*http.Response, error) {
	tr := f.tr.Load()
	ref, ok := r.Context().Value(spanCtxKey{}).(spanRef)
	if tr == nil || !ok {
		return f.shardTxp.RoundTrip(r)
	}
	n := countIPs(r)
	f.addrs[f.shardOf[r.URL.Host]].Add(int64(n))
	sp := tr.begin("cluster.fanout.rtt", ref.id, ref.req)
	r2 := r.Clone(r.Context())
	r2.Header.Set(spanHeader, spanRef{ref.req, sp.ID}.header())
	resp, err := f.shardTxp.RoundTrip(r2)
	if err != nil {
		tr.finish(sp, n)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { tr.finish(sp, n) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// countIPs counts the addresses in a shard batch request body, read from a
// copy; single lookups count as one.
func countIPs(r *http.Request) int {
	if r.GetBody == nil {
		return 1
	}
	body, err := r.GetBody()
	if err != nil {
		return 1
	}
	defer body.Close()
	raw, err := io.ReadAll(body)
	if err != nil {
		return 1
	}
	return max((bytes.Count(raw, []byte{'"'})-2)/2, 1)
}

// makeBatches builds the request pool from the served world's blocks, and
// the hash of each batch's expected answer from direct lookups in the
// served map.
func (s *serveInst) makeBatches(seed uint64) error {
	blocks := s.fl.blocks
	s.fl.blocks = nil
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	hot := make([]netip.Addr, len(blocks))
	used := make(map[netip.Addr]bool, len(hot))
	for i, k := range rng.Perm(len(blocks)) {
		hot[i] = blocks[k].HostAddr(rng.Uint64())
		used[hot[i]] = true
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(hot)-1))
	s.batches = make([]serveBatch, batchPool)
	addrs := make([]netip.Addr, batchSize)
	for i := range s.batches {
		for k := range addrs {
			if k < batchUniform {
				for {
					a := netip.AddrFrom4([4]byte{byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32())})
					if !used[a] {
						used[a] = true
						addrs[k] = a
						break
					}
				}
			} else {
				addrs[k] = hot[zipf.Uint64()]
			}
		}
		rng.Shuffle(len(addrs), func(a, b int) { addrs[a], addrs[b] = addrs[b], addrs[a] })
		req := cellmap.BatchRequest{IPs: make([]string, batchSize)}
		want := cellmap.BatchResponse{Generation: 1}
		for k, a := range addrs {
			req.IPs[k] = a.String()
			want.Results = append(want.Results, cellmap.LookupAddr(s.fl.m, 1, a, req.IPs[k]))
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		wantBody, err := json.Marshal(want)
		if err != nil {
			return err
		}
		h, _, ok := hashAnswer(append(wantBody, '\n'))
		if !ok {
			return fmt.Errorf("expected answer of batch %d has no uniform generation", i)
		}
		s.batches[i] = serveBatch{body: body, want: h}
	}
	return nil
}

var answerSeed = maphash.MakeSeed()

var genKey = []byte(`"generation":`)

// hashAnswer hashes a batch answer with every generation number left out,
// and reports the generation and whether every result carries that same
// one. Equal hashes mean equal answers up to the generation label.
func hashAnswer(body []byte) (sum, gen uint64, ok bool) {
	var h maphash.Hash
	h.SetSeed(answerSeed)
	found := false
	for {
		i := bytes.Index(body, genKey)
		if i < 0 {
			break
		}
		h.Write(body[:i+len(genKey)])
		body = body[i+len(genKey):]
		j := 0
		var g uint64
		for j < len(body) && body[j] >= '0' && body[j] <= '9' {
			g = g*10 + uint64(body[j]-'0')
			j++
		}
		if j == 0 || (found && g != gen) {
			return 0, 0, false
		}
		gen, found = g, true
		body = body[j:]
	}
	h.Write(body)
	return h.Sum64(), gen, found
}

func (s *serveInst) run(d time.Duration, tr *tracer) []sample {
	s.fl.tr.Store(tr)
	defer s.fl.tr.Store(nil)
	if tr != nil {
		s.snap = s.counters()
		for i := range s.snapAddr {
			s.snapAddr[i] = s.fl.addrs[i].Load()
		}
	}
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ss := make([]sample, 0, 1<<16)
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := s.next.Add(1) - 1
				t0 := time.Now()
				ok := s.batch(&s.batches[i%batchPool], &buf, tr)
				t1 := time.Now()
				sm := sample{at: t1.Sub(start), lat: t1.Sub(t0), ok: ok}
				if ok {
					sm.items = batchSize
				}
				ss = append(ss, sm)
				if (i+1)%swapEvery == 0 {
					s.swap(tr)
				}
			}
			per[c] = ss
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, ss := range per {
		all = append(all, ss...)
	}
	return all
}

// batch posts one batch and checks the answer: status 200, one
// generation throughout, and results equal to direct map lookups.
func (s *serveInst) batch(b *serveBatch, buf *bytes.Buffer, tr *tracer) bool {
	req, err := http.NewRequest(http.MethodPost, s.fl.gwURL, bytes.NewReader(b.body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	var sp span
	if tr != nil {
		sp = tr.begin("serve.batch", 0, tr.newReq())
		req.Header.Set(spanHeader, spanRef{sp.Req, sp.ID}.header())
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	tr.finish(sp, batchUniform)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	h, _, ok := hashAnswer(buf.Bytes())
	return ok && h == b.want
}

// swap moves every replica to the next generation of the same map, as a
// rolling publish would.
func (s *serveInst) swap(tr *tracer) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	sp := tr.begin("serve.swap", 0, 0)
	g := s.gen.Add(1)
	for _, sw := range s.fl.sws {
		sw.Swap(s.fl.m, g)
	}
	tr.finish(sp, 0)
}

// counters reads the gateway's registry.
func (s *serveInst) counters() map[string]float64 {
	reg := s.fl.reg
	out := map[string]float64{
		"hits":   float64(reg.Counter("cluster_cache_hits_total", "").Value()),
		"misses": float64(reg.Counter("cluster_cache_misses_total", "").Value()),
	}
	for sh := 0; sh < serveShards; sh++ {
		out["hedges"] += float64(reg.Counter("cluster_hedged_requests_total", "", obs.L("shard", strconv.Itoa(sh))).Value())
	}
	return out
}

func (s *serveInst) layers(tr *tracer, ops int) map[string]float64 {
	now := s.counters()
	delta := func(k string) float64 { return now[k] - s.snap[k] }
	spans := tr.byName()
	rtts := spans["cluster.fanout.rtt"]
	var shardAddrs [serveShards]float64
	total, top := 0.0, 0.0
	for i := range shardAddrs {
		shardAddrs[i] = float64(s.fl.addrs[i].Load() - s.snapAddr[i])
		total += shardAddrs[i]
		top = max(top, shardAddrs[i])
	}
	return map[string]float64{
		"cluster.gateway.handler_ms_p50":    ms(pct(tr.selfTimes("cluster.gateway"), 0.5)),
		"cluster.cache.hit_ratio":           ratio(delta("hits"), delta("hits")+delta("misses")),
		"cluster.cache.refill_batches":      refillBatches(spans),
		"cluster.fanout.requests_per_batch": ratio(float64(len(rtts)), float64(ops)),
		"cluster.fanout.rtt_ms_p50":         ms(pct(durations(rtts), 0.5)),
		"cluster.hedge.per_batch":           ratio(delta("hedges"), float64(ops)),
		"cluster.ring.max_shard_share":      ratio(top, total),
		"cellmap.shard.handler_ms_p50":      ms(pct(durations(spans["cellmap.shard"]), 0.5)),
		"cellmap.shard.addrs_per_request":   ratio(float64(sumN(rtts)), float64(len(rtts))),
		"cellmap.response_bytes_per_batch":  ratio(float64(sumN(spans["cellmap.shard"])), float64(ops)),
	}
}

// refillBatches is the mean number of batches, after each swap, until a
// batch's repeated (non-uniform) addresses miss the cache no more often
// than in the phase's median batch.
func refillBatches(spans map[string][]span) float64 {
	fetched := make(map[uint64]int)
	for _, sp := range spans["cluster.fanout.rtt"] {
		fetched[sp.Req] += sp.N
	}
	batches := spans["serve.batch"]
	sort.Slice(batches, func(i, j int) bool { return batches[i].Start < batches[j].Start })
	hot := make([]float64, len(batches)) // repeated addresses fetched per batch
	for i, b := range batches {
		hot[i] = float64(max(fetched[b.Req]-b.N, 0))
	}
	typical := median(hot)
	swaps := spans["serve.swap"]
	total := 0
	for _, sw := range swaps {
		i := sort.Search(len(batches), func(i int) bool { return batches[i].Start >= sw.End })
		n := 0
		for ; i < len(batches) && hot[i] > typical; i++ {
			n++
		}
		total += n
	}
	return ratio(float64(total), float64(len(swaps)))
}

// finish settles the gateway cache into a state fixed by the seed — one
// swap, then the first swapEvery batches of the pool from one client —
// and measures the live heap in it.
func (s *serveInst) finish() (float64, []string) {
	s.swap(nil)
	// A health check makes the gateway observe the new generation and
	// drop its cache now, not at whichever replayed batch first misses.
	s.fl.gw.CheckNow(context.Background())
	var buf bytes.Buffer
	failed := 0
	for i := range swapEvery {
		if !s.batch(&s.batches[i], &buf, nil) {
			failed++
		}
	}
	s.batches = nil
	heap := liveHeapMB()
	if failed > 0 {
		return heap, []string{fmt.Sprintf("%d batches failed their check while settling the cache", failed)}
	}
	return heap, nil
}

func (s *serveInst) close() {
	s.fl.close()
	s.client.CloseIdleConnections()
}

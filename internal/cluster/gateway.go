package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cellspot/internal/cellmap"
	"cellspot/internal/obs"
	"cellspot/internal/obs/httpmw"
)

// GatewayConfig parameterizes a Gateway. Zero values take the defaults
// noted per field.
type GatewayConfig struct {
	// Topology describes the fleet (required, must validate).
	Topology Topology
	// Client issues all shard traffic. Default: 2s total timeout.
	Client *http.Client
	// Registry receives the gateway metrics; nil disables them.
	Registry *obs.Registry
	// Attempts is how many full replica passes a request gets before the
	// gateway gives up on a shard. Default 2.
	Attempts int
	// Backoff is the sleep before the second pass, doubling per pass.
	// Default 25ms.
	Backoff time.Duration
	// HedgeDelay is the wait before hedging to the next replica while the
	// shard's latency tracker is still cold. Once warm, the shard's p95
	// (clamped to [1ms, 250ms]) replaces it. Default 25ms.
	HedgeDelay time.Duration
	// CacheSize is the capacity (addresses) of the generation-keyed
	// response cache. Default DefaultCacheSize. The cache holds answers of
	// the newest generation the gateway has observed and is invalidated
	// wholesale the moment a newer generation appears.
	CacheSize int
	// HealthInterval is the health-check cadence. Default 1s.
	HealthInterval time.Duration
	// BreakerThreshold is how many consecutive request-path failures open a
	// replica's circuit breaker. Default 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses traffic before
	// letting a half-open probe through. Default 1s.
	BreakerCooldown time.Duration
	// AllowDegraded opts the gateway into degraded batch mode: when a
	// minority of a batch's shards cannot answer, the batch succeeds with
	// per-address placeholders marked "degraded" instead of failing whole.
	// Default false — strict whole-batch failure, the historical behavior.
	AllowDegraded bool
	// Logf receives operational log lines; nil silences them.
	Logf func(format string, args ...any)
}

// DefaultCacheSize is the response cache capacity, in addresses, when
// GatewayConfig.CacheSize is not positive.
const DefaultCacheSize = 65536

const (
	// genRounds is how many reconciliation rounds a mixed-generation batch
	// gets before failing with ErrGenerationSplit.
	genRounds = 3
	// healthTimeout bounds one health probe.
	healthTimeout = 500 * time.Millisecond
)

func (c *GatewayConfig) fillDefaults() {
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 2 * time.Second}
	}
	if c.Attempts <= 0 {
		c.Attempts = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = 25 * time.Millisecond
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 25 * time.Millisecond
	}
	if c.CacheSize <= 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
}

// Gateway fronts the shard fleet: it owns the routing decision (via the
// ring), replica selection, retries, hedging, and the batch
// scatter-gather with its generation-consistency guard. Gateways are
// stateless with respect to the dataset — they hold no map, only the
// topology and a continuously refreshed health view — so any number of
// them can run behind a load balancer.
type Gateway struct {
	cfg      GatewayConfig
	ring     *Ring
	replicas [][]*replica // [shard][replica]
	rr       []atomic.Uint64
	lat      []*latencyTracker
	cache    *lookupCache

	mRequests  []*obs.Counter // per shard
	mErrors    []*obs.Counter
	mHedges    []*obs.Counter
	mFanout    *obs.Histogram
	mConflicts *obs.Counter
	mDegraded  *obs.Counter
}

// NewGateway validates the topology and builds a gateway. Call Run (or
// CheckNow) to populate the health view; until then every replica counts
// as down and requests fall back to blind ordering.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	g := &Gateway{
		cfg:  cfg,
		ring: cfg.Topology.Ring(),
		rr:   make([]atomic.Uint64, cfg.Topology.NumShards()),
		lat:  make([]*latencyTracker, cfg.Topology.NumShards()),
	}
	reg := cfg.Registry
	g.cache = newLookupCache(cfg.CacheSize, reg)
	g.mFanout = reg.Histogram("cluster_fanout_seconds",
		"Batch scatter-gather wall time in seconds.", obs.DefBuckets)
	g.mConflicts = reg.Counter("cluster_generation_conflicts_total",
		"Batch rounds that observed mixed shard generations.")
	g.mDegraded = reg.Counter("cluster_degraded_batches_total",
		"Batches answered partially because a minority of shards was dark.")
	for s, spec := range cfg.Topology.Shards {
		g.lat[s] = &latencyTracker{}
		label := obs.L("shard", strconv.Itoa(s))
		g.mRequests = append(g.mRequests, reg.Counter("cluster_shard_requests_total",
			"Requests sent to shard replicas.", label))
		g.mErrors = append(g.mErrors, reg.Counter("cluster_shard_errors_total",
			"Failed requests to shard replicas.", label))
		g.mHedges = append(g.mHedges, reg.Counter("cluster_hedged_requests_total",
			"Hedge requests fired after the latency threshold.", label))
		var reps []*replica
		for j, u := range spec.Replicas {
			repLabel := obs.L("replica", strconv.Itoa(j))
			reps = append(reps, &replica{
				shard: s,
				index: j,
				url:   strings.TrimSuffix(u, "/"),
				br: newBreaker(int64(cfg.BreakerThreshold), cfg.BreakerCooldown,
					reg.Gauge("cluster_breaker_state",
						"Replica circuit breaker: 0 closed, 1 half-open, 2 open.",
						label, repLabel)),
				mUp: reg.Gauge("cluster_replica_up",
					"1 when the replica's last health probe succeeded.",
					label, repLabel),
				mGen: reg.Gauge("cluster_replica_generation",
					"Map generation the replica last reported.",
					label, repLabel),
			})
		}
		g.replicas = append(g.replicas, reps)
	}
	return g, nil
}

// replicaOrder ranks a shard's replicas for one request: healthy replicas
// at or above minGen first, then healthy laggards, then everything else —
// each class rotated round-robin so load spreads across equals. minGen 0
// means "any generation". Replicas whose circuit breaker refuses traffic
// are excluded — unless that would leave nothing, in which case they all
// come back (a long-shot attempt beats refusing the request outright, and
// keeps the all-replicas-down error path intact).
func (g *Gateway) replicaOrder(shard int, minGen uint64) []*replica {
	reps := g.replicas[shard]
	n := len(reps)
	start := int(g.rr[shard].Add(1)) % n
	now := time.Now()
	order := make([]*replica, 0, n)
	refused := make([]*replica, 0, n)
	for class := 0; class < 3 && len(order)+len(refused) < n; class++ {
		for k := 0; k < n; k++ {
			rep := reps[(start+k)%n]
			up := rep.up.Load()
			var c int
			switch {
			case up && rep.gen.Load() >= minGen:
				c = 0
			case up:
				c = 1
			default:
				c = 2
			}
			if c != class {
				continue
			}
			if rep.br.allow(now) {
				order = append(order, rep)
			} else {
				refused = append(refused, rep)
			}
		}
	}
	if len(order) == 0 {
		return refused
	}
	return order
}

// tryResult is one replica attempt's outcome.
type tryResult struct {
	status int
	body   []byte
	err    error
	rep    *replica
	dur    time.Duration
}

// DeadlineHeader carries the gateway's request deadline to shard nodes as
// unix microseconds, so a shard can refuse work whose caller is already
// gone instead of computing an answer nobody will read.
const DeadlineHeader = "X-Cellspot-Deadline"

// issueOne sends build(rep), reports into ch, and owns the attempt's
// bookkeeping (error counters, breaker verdict, latency sample, health
// flip on transport errors). Recording lives here — not in the receive
// loop — because hedging abandons losers, and an abandoned attempt's
// outcome must still be folded in. The one exception: an attempt
// cancelled from outside (caller gone, or a hedge sibling won) says
// nothing about the replica, so it records no verdict at all.
func (g *Gateway) issueOne(ctx context.Context, rep *replica, build func(url string) (*http.Request, error), ch chan<- tryResult) {
	g.mRequests[rep.shard].Inc()
	start := time.Now()
	res := g.doOne(ctx, rep, build)
	res.dur = time.Since(start)
	if ctx.Err() != nil && res.err != nil {
		rep.br.abandon()
	} else if res.ok() {
		rep.br.record(true, time.Now())
		g.lat[rep.shard].observe(res.dur)
	} else {
		g.mErrors[rep.shard].Inc()
		rep.br.record(false, time.Now())
		if res.err != nil {
			// Transport-level failure: flip the health view now instead of
			// waiting for the next probe.
			g.markDown(rep)
		}
	}
	ch <- res // buffered to the launch count; never blocks
}

func (g *Gateway) doOne(ctx context.Context, rep *replica, build func(url string) (*http.Request, error)) tryResult {
	req, err := build(rep.url)
	if err != nil {
		return tryResult{err: err, rep: rep}
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(DeadlineHeader, strconv.FormatInt(dl.UnixMicro(), 10))
	}
	resp, err := g.cfg.Client.Do(req.WithContext(ctx))
	if err != nil {
		return tryResult{err: err, rep: rep}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return tryResult{err: err, rep: rep}
	}
	return tryResult{status: resp.StatusCode, body: body, rep: rep}
}

// ok reports whether an attempt's answer should be served. 4xx answers
// other than 421 are served (they are the client's error); 421 means the
// fleet disagrees about ownership and trying another replica is useless
// but serving it would be wrong, so it counts as a failure. 5xx and
// transport errors count as failures and move on to the next replica.
func (t tryResult) ok() bool {
	return t.err == nil && t.status < 500 && t.status != http.StatusMisdirectedRequest
}

// hedgedTry runs one pass over order: fire the first replica, hedge to
// the next after the shard's hedge delay, and keep escalating — each
// subsequent hedge waits the same delay. The first serveable answer wins.
// Every try runs under its own cancellable context, so when a winner
// returns — or the caller disconnects — the losing in-flight requests are
// aborted instead of running to completion against busy replicas.
//
// Launching consults each replica's circuit breaker (acquire, the mutating
// check): a refused replica is skipped. If nothing at all is acquirable,
// the first replica is tried anyway — a last-resort attempt keeps the
// request path honest (a real error, not a synthetic refusal) when a whole
// shard's breakers are open.
func (g *Gateway) hedgedTry(ctx context.Context, shard int, order []*replica, build func(url string) (*http.Request, error)) (tryResult, bool) {
	if len(order) == 0 {
		return tryResult{}, false
	}
	ch := make(chan tryResult, len(order))
	cancels := make([]context.CancelFunc, 0, len(order))
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	next, launched := 0, 0
	launch := func(force bool) bool {
		for next < len(order) {
			rep := order[next]
			next++
			if !force && !rep.br.acquire(time.Now()) {
				continue
			}
			tryCtx, cancel := context.WithCancel(ctx)
			cancels = append(cancels, cancel)
			launched++
			go g.issueOne(tryCtx, rep, build, ch)
			return true
		}
		return false
	}
	if !launch(false) {
		next = 0
		launch(true)
	}

	delay := g.hedgeDelay(shard)
	timer := time.NewTimer(delay)
	defer timer.Stop()

	failed := 0
	for {
		select {
		case <-ctx.Done():
			return tryResult{err: ctx.Err()}, false
		case <-timer.C:
			if launch(false) {
				g.mHedges[shard].Inc()
				timer.Reset(delay)
			}
		case res := <-ch:
			if res.ok() {
				return res, true
			}
			failed++
			// Skip the hedge wait: we know the last try failed.
			if !launch(false) && failed == launched {
				return res, false
			}
		}
	}
}

// forward routes one request to a shard with retries, backoff, and
// hedging. minGen biases replica choice toward replicas at or above that
// generation.
func (g *Gateway) forward(ctx context.Context, shard int, minGen uint64, build func(url string) (*http.Request, error)) (tryResult, error) {
	var last tryResult
	for attempt := 0; attempt < g.cfg.Attempts; attempt++ {
		if attempt > 0 {
			backoff := g.cfg.Backoff << (attempt - 1)
			select {
			case <-ctx.Done():
				return tryResult{}, ctx.Err()
			case <-time.After(backoff):
			}
		}
		res, ok := g.hedgedTry(ctx, shard, g.replicaOrder(shard, minGen), build)
		if ok {
			return res, nil
		}
		last = res
	}
	if last.err != nil {
		return tryResult{}, fmt.Errorf("shard %d unavailable: %w", shard, last.err)
	}
	return tryResult{}, fmt.Errorf("shard %d unavailable: last status %d", shard, last.status)
}

// hedgeDelay picks the hedge threshold for a shard: its observed p95 once
// the tracker is warm, the configured default until then.
func (g *Gateway) hedgeDelay(shard int) time.Duration {
	if p95, ok := g.lat[shard].p95(); ok {
		return clampDuration(p95, time.Millisecond, 250*time.Millisecond)
	}
	return g.cfg.HedgeDelay
}

func clampDuration(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// Lookup routes one address to its owning shard and returns the shard's
// raw answer (status + body), ready to proxy. A cache hit answers locally
// from the cache's current generation; a miss is forwarded (biased toward
// replicas at or past that generation) and the answer cached under the
// generation it carries.
func (g *Gateway) Lookup(ctx context.Context, addr netip.Addr) (int, []byte, error) {
	resp, minGen, ok := g.cache.get(addr)
	if ok {
		// 256 bytes hold most answers: a v6 hit with its RAT split runs to ~200.
		body, err := cellmap.AppendJSON(make([]byte, 0, 256), resp)
		if err != nil {
			return 0, nil, err
		}
		return http.StatusOK, body, nil
	}
	shard := g.ring.Owner(addr)
	res, err := g.forward(ctx, shard, minGen, func(url string) (*http.Request, error) {
		return http.NewRequest(http.MethodGet, url+"/v1/lookup?ip="+addr.String(), nil)
	})
	if err != nil {
		return 0, nil, err
	}
	if res.status == http.StatusOK {
		var lr cellmap.LookupResponse
		if err := cellmap.DecodeLookupResponse(res.body, &lr); err == nil {
			g.cache.put(lr.Generation, addr, lr)
		}
	}
	return res.status, res.body, nil
}

// forwardGet GETs path from the shard owning addr and returns the shard's
// status and body, uncached. Generation-addressed lookups and history
// walks take it: the cache holds only newest-generation answers, so a
// pinned-generation request must never be served from it, nor its answer
// stored in it, and a history walk changes with every publish and prune
// and only the owning shard's history index has the retained generations.
func (g *Gateway) forwardGet(ctx context.Context, addr netip.Addr, path string) (int, []byte, error) {
	res, err := g.forward(ctx, g.ring.Owner(addr), 0, func(url string) (*http.Request, error) {
		return http.NewRequest(http.MethodGet, url+path, nil)
	})
	if err != nil {
		return 0, nil, err
	}
	return res.status, res.body, nil
}

// shardFetch posts one sub-batch to a shard and decodes the answer.
func (g *Gateway) shardFetch(ctx context.Context, shard int, minGen uint64, addrs []netip.Addr) (cellmap.BatchResponse, error) {
	// Room for v4 addresses, quoted and comma-separated; v6 ones grow it.
	payload := cellmap.AppendBatchRequest(make([]byte, 0, 16+16*len(addrs)), addrs)
	res, err := g.forward(ctx, shard, minGen, func(url string) (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, url+"/v1/lookup/batch", bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return cellmap.BatchResponse{}, err
	}
	if res.status != http.StatusOK {
		return cellmap.BatchResponse{}, fmt.Errorf("shard %d: status %d: %s",
			shard, res.status, strings.TrimSpace(string(res.body)))
	}
	var br cellmap.BatchResponse
	if err := cellmap.DecodeBatchResponse(res.body, &br); err != nil {
		return cellmap.BatchResponse{}, fmt.Errorf("shard %d: bad batch body: %w", shard, err)
	}
	if len(br.Results) != len(addrs) {
		return cellmap.BatchResponse{}, fmt.Errorf("shard %d: %d results for %d addresses",
			shard, len(br.Results), len(addrs))
	}
	return br, nil
}

// Batch answers a batch lookup, serving what it can from the cache and
// scatter-gathering the rest. Every response is generation-uniform: all
// results carry one generation, whether they came from the cache, the
// fleet, or (transiently) both.
//
// The merge rule: cache hits are valid only at the cache's generation,
// so misses are fetched with that generation as the floor. If the fleet
// answers at a newer generation (a swap landed between the cache read
// and the fetch), mixing would violate uniformity — the gateway refetches
// the whole batch at the new generation instead. The refetch can recurse
// at most as long as generations keep advancing mid-request, which the
// deployment invariant makes a transient of rolling swaps, not a loop.
func (g *Gateway) Batch(ctx context.Context, addrs []netip.Addr) (cellmap.BatchResponse, error) {
	start := time.Now()
	defer func() { g.mFanout.Observe(time.Since(start).Seconds()) }()
	span := g.batchSpan(addrs)
	out := make([]cellmap.LookupResponse, len(addrs))
	hit := make([]bool, len(addrs))
	cgen := g.cache.getMany(addrs, out, hit)

	miss := make([]netip.Addr, 0, len(addrs))
	for i, h := range hit {
		if !h {
			miss = append(miss, addrs[i])
		}
	}
	if len(miss) == 0 {
		return cellmap.BatchResponse{Generation: cgen, Results: out}, nil
	}

	fetched, err := g.batchFetch(ctx, miss, cgen, span)
	if err != nil {
		return cellmap.BatchResponse{}, err
	}
	g.cache.observe(fetched.Generation)
	if fetched.Generation != cgen && len(miss) < len(addrs) {
		// A swap landed between the cache read and the fetch: the hits
		// belong to an older snapshot than the fetched answers. Refetch
		// everything at the new generation rather than mix.
		fetched, err = g.batchFetch(ctx, addrs, fetched.Generation, span)
		if err != nil {
			return cellmap.BatchResponse{}, err
		}
		g.cache.observe(fetched.Generation)
		for i, r := range fetched.Results {
			if r.Degraded {
				// A placeholder is an admission of ignorance, not an
				// answer; caching it would serve the outage after it ends.
				continue
			}
			g.cache.put(fetched.Generation, addrs[i], r)
		}
		return fetched, nil
	}
	k := 0
	for i, h := range hit {
		if !h {
			out[i] = fetched.Results[k]
			if !out[i].Degraded {
				g.cache.put(fetched.Generation, addrs[i], out[i])
			}
			k++
		}
	}
	return cellmap.BatchResponse{Generation: fetched.Generation, Results: out, Degraded: fetched.Degraded}, nil
}

// batchSpan counts the distinct shards a batch touches. Degraded-mode
// minority decisions are made against the client's full batch, not a
// cache-miss subset — otherwise a warm cache could shrink the miss set to
// exactly the dark shard and flip "1 of 3 shards dark" into "1 of 1".
func (g *Gateway) batchSpan(addrs []netip.Addr) int {
	seen := make(map[int]struct{}, 4)
	for _, a := range addrs {
		seen[g.ring.Owner(a)] = struct{}{}
	}
	return len(seen)
}

// batchFetch scatter-gathers a batch lookup across the owning shards and
// merges the answers back into request order. minGen biases replica
// selection toward replicas at or past that generation. span is the shard
// count of the client's full batch for degraded-mode minority decisions
// (0 means "this call is the full batch").
//
// The generation-consistency guard: a response is only returned when
// every sub-answer carries the same generation. When a gather observes a
// mix, the gateway re-queries the lagging shards — biased toward replicas
// the health view says have reached the target generation — for up to
// genRounds rounds, then fails with ErrGenerationSplit rather than serve
// a frankenbatch spanning two snapshots.
func (g *Gateway) batchFetch(ctx context.Context, addrs []netip.Addr, minGen uint64, span int) (cellmap.BatchResponse, error) {
	// Group addresses by owning shard, remembering request positions.
	groups := make(map[int][]int)
	for i, a := range addrs {
		s := g.ring.Owner(a)
		groups[s] = append(groups[s], i)
	}
	if span < len(groups) {
		span = len(groups)
	}
	sub := make(map[int][]netip.Addr, len(groups))
	for s, idxs := range groups {
		as := make([]netip.Addr, len(idxs))
		for k, i := range idxs {
			as[k] = addrs[i]
		}
		sub[s] = as
	}

	results := make(map[int]cellmap.BatchResponse, len(groups))
	// dark accumulates shards that could not answer. In strict mode (the
	// default) any entry fails the batch; in degraded mode a minority of
	// dark shards is tolerated and their addresses answered with explicit
	// placeholders.
	dark := make(map[int]error)
	fetch := func(shards []int, minGen uint64) {
		var (
			mu sync.Mutex
			wg sync.WaitGroup
		)
		for _, s := range shards {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				br, err := g.shardFetch(ctx, s, minGen, sub[s])
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					dark[s] = err
					delete(results, s)
					return
				}
				results[s] = br
				delete(dark, s)
			}(s)
		}
		wg.Wait()
	}
	// tolerate reports whether the dark set is acceptable: degraded mode
	// on, a strict minority of the batch's shard span dark (a single-shard
	// batch therefore never degrades), and the caller's context live (a
	// cancelled scatter says nothing about shard health).
	tolerate := func() error {
		if len(dark) == 0 {
			return nil
		}
		var anyErr error
		for _, err := range dark {
			anyErr = err
			break
		}
		if !g.cfg.AllowDegraded || 2*len(dark) >= span || ctx.Err() != nil {
			return anyErr
		}
		return nil
	}

	all := make([]int, 0, len(groups))
	for s := range groups {
		all = append(all, s)
	}
	fetch(all, minGen)
	if err := tolerate(); err != nil {
		return cellmap.BatchResponse{}, err
	}

	for round := 0; ; round++ {
		// minGen is a floor, not just a routing bias: an answer below it
		// would be stale relative to what the caller (the cache) has
		// already observed, so shards below the target count as lagging
		// even when they agree with each other.
		target := minGen
		for _, br := range results {
			if br.Generation > target {
				target = br.Generation
			}
		}
		mixed := false
		for _, br := range results {
			if br.Generation != target {
				mixed = true
				break
			}
		}
		if !mixed {
			break
		}
		g.mConflicts.Inc()
		if round >= genRounds {
			return cellmap.BatchResponse{}, ErrGenerationSplit
		}
		var lagging []int
		for s, br := range results {
			if br.Generation != target {
				lagging = append(lagging, s)
			}
		}
		g.logf("batch: generations split (target %d, %d shards behind), round %d", target, len(lagging), round+1)
		// Give an in-flight rolling swap a moment to land before asking
		// the laggards again.
		select {
		case <-ctx.Done():
			return cellmap.BatchResponse{}, ctx.Err()
		case <-time.After(g.cfg.Backoff):
		}
		fetch(lagging, target)
		if err := tolerate(); err != nil {
			return cellmap.BatchResponse{}, err
		}
	}

	// With every reached shard converged, Generation is their common value;
	// minGen covers the corner where the whole (tolerated) fetch was dark —
	// the caller's cache generation is the only honest label left.
	out := cellmap.BatchResponse{Generation: minGen, Results: make([]cellmap.LookupResponse, len(addrs))}
	for s, idxs := range groups {
		br, ok := results[s]
		if !ok {
			// Dark shard under degraded mode: explicit placeholders, never
			// silent zero-value answers a client could mistake for data.
			for k, i := range idxs {
				out.Results[i] = cellmap.LookupResponse{Addr: sub[s][k].String(), Degraded: true}
			}
			out.Degraded = true
			continue
		}
		out.Generation = br.Generation
		for k, i := range idxs {
			out.Results[i] = br.Results[k]
		}
	}
	if out.Degraded {
		g.mDegraded.Inc()
		g.logf("batch: degraded answer, %d/%d shards dark", len(dark), len(groups))
	}
	return out, nil
}

// ErrGenerationSplit reports that the fleet could not converge on one
// generation within the reconciliation budget.
var ErrGenerationSplit = fmt.Errorf("cluster: shards split across generations, retry later")

// Mount registers the gateway's routes on r:
//
//	GET  /v1/lookup?ip=ADDR  — routed to the owning shard
//	POST /v1/lookup/batch    — scatter-gather, one generation
//	GET  /v1/cluster/health  — the gateway's fleet view
func (g *Gateway) Mount(r httpmw.Router) {
	r.HandleFunc("GET /v1/lookup", func(w http.ResponseWriter, req *http.Request) {
		addr, _, ok := cellmap.ParseLookupAddr(w, req)
		if !ok {
			return
		}
		seq, ok := cellmap.ParseGen(w, req)
		if !ok {
			return
		}
		var status int
		var body []byte
		var err error
		if seq != 0 {
			// Generation-addressed: route around the cache entirely.
			status, body, err = g.forwardGet(req.Context(), addr,
				fmt.Sprintf("/v1/lookup?ip=%s&gen=%d", addr, seq))
		} else {
			status, body, err = g.Lookup(req.Context(), addr)
		}
		writeProxied(w, status, body, err)
	})
	r.HandleFunc("GET /v1/history", func(w http.ResponseWriter, req *http.Request) {
		addr, _, ok := cellmap.ParseLookupAddr(w, req)
		if !ok {
			return
		}
		status, body, err := g.forwardGet(req.Context(), addr, "/v1/history?ip="+addr.String())
		writeProxied(w, status, body, err)
	})
	r.HandleFunc("POST /v1/lookup/batch", func(w http.ResponseWriter, req *http.Request) {
		addrs, _, ok := cellmap.DecodeBatch(w, req)
		if !ok {
			return
		}
		resp, err := g.Batch(req.Context(), addrs)
		if err != nil {
			code := http.StatusBadGateway
			if err == ErrGenerationSplit {
				code = http.StatusServiceUnavailable
			}
			cellmap.WriteError(w, code, err.Error())
			return
		}
		cellmap.WriteJSON(w, resp)
	})
	r.HandleFunc("GET /v1/cluster/health", func(w http.ResponseWriter, _ *http.Request) {
		cellmap.WriteJSON(w, g.Health())
	})
}

// writeProxied writes a shard's JSON answer through with its status, or
// 502 when forwarding failed.
func writeProxied(w http.ResponseWriter, status int, body []byte, err error) {
	if err != nil {
		cellmap.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// latencyTracker keeps a small ring of recent request latencies per shard
// and answers "what is p95 right now" for the hedging policy. Next to the
// ring it keeps the same samples sorted, so observe moves one sample out
// and one in, and p95 is one index. A mutex is fine here: the gateway path
// does network I/O around it.
type latencyTracker struct {
	mu      sync.Mutex
	samples [128]time.Duration // in arrival order
	sorted  [128]time.Duration // sorted[:n] holds samples[:n], ascending
	n       int                // filled entries
	idx     int                // next write position
}

func (t *latencyTracker) observe(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n
	if n == len(t.samples) {
		// d overwrites the oldest sample: take one copy of it out.
		i, _ := slices.BinarySearch(t.sorted[:n], t.samples[t.idx])
		copy(t.sorted[i:], t.sorted[i+1:n])
		n--
	}
	j, _ := slices.BinarySearch(t.sorted[:n], d)
	copy(t.sorted[j+1:n+1], t.sorted[j:n])
	t.sorted[j] = d
	t.n = n + 1
	t.samples[t.idx] = d
	t.idx = (t.idx + 1) % len(t.samples)
}

// p95 returns the 95th-percentile latency, or ok=false while fewer than
// 16 samples are in (hedging then uses the configured default).
func (t *latencyTracker) p95() (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n < 16 {
		return 0, false
	}
	return t.sorted[t.n*95/100], true
}

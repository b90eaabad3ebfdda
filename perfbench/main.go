// Command perfbench is the repository's benchmark. It runs one workload
// against the cellspot packages in-process, checks every output, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) with their units and sample counts. The last line of standard
// output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload serve|fresh|pipeline --seed N --seconds S --trace 0|1 [--scale X]
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// buildDir holds everything a run leaves behind: the compiled benchmark,
// scratch state of each run, and traces. It is relative to the checkout.
const buildDir = ".bench_build"

// opts is what every workload receives.
type opts struct {
	seed    uint64
	dur     time.Duration
	trace   bool
	scale   float64 // 0: the workload's default
	workDir string  // scratch directory, removed after the run
}

// instance is one set-up workload.
type instance interface {
	// run executes ops until d elapses and returns one sample per op. tr
	// is nil when untraced.
	run(d time.Duration, tr *tracer) []sample
	// layers derives the per-layer metrics from the traced phase.
	layers(tr *tracer, ops int) map[string]float64
	// finish drops generator inputs, measures the live heap with the
	// workload's output still reachable, and runs end-of-run checks.
	finish() (heapMB float64, problems []string)
	close()
}

type workload struct {
	name  string
	scale float64
	// tail is the latency percentile reported as latency_tail_ms, one
	// with at least ~10 samples beyond it in a 20-second run (per window
	// where the workload has windows). A pipeline run holds ~7 ops, too
	// few for any tail, so its tail is the median.
	tail float64
	// window, when set, makes latency and throughput the medians over
	// windows of this length (see summarize).
	window time.Duration
	// start builds generator inputs and sets the program up (several
	// times), returning each set-up's seconds.
	start func(o opts) (instance, []float64, error)
}

var workloads = []workload{
	{name: "serve", scale: 0.01, tail: 0.99, window: time.Second, start: startServe},
	{name: "fresh", scale: 0.01, tail: 0.80, start: startFresh},
	{name: "pipeline", scale: 0.02, tail: 0.50, start: startPipeline},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer list every metric with its unit, in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"items_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"heap_live_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"cluster.gateway.handler_ms_p50", "ms"},
	{"cluster.cache.hit_ratio", "ratio"},
	{"cluster.cache.refill_batches", "count"},
	{"cluster.fanout.requests_per_batch", "count"},
	{"cluster.fanout.rtt_ms_p50", "ms"},
	{"cluster.hedge.per_batch", "count"},
	{"cluster.ring.max_shard_share", "ratio"},
	{"cellmap.shard.handler_ms_p50", "ms"},
	{"cellmap.shard.addrs_per_request", "count"},
	{"cellmap.response_bytes_per_batch", "bytes"},
	{"rum.post_ms_p50", "ms"},
	{"federation.ship_ms_p50", "ms"},
	{"federation.fold_ms_mean", "ms"},
	{"federation.bytes_per_round", "bytes"},
	{"federation.folded_over_posted", "ratio"},
	{"federation.tick_ms_p50", "ms"},
	{"federation.window_records", "count"},
	{"cellmap.entries", "count"},
	{"live.load_ms_p50", "ms"},
	{"cellmap.swap_visible_ms_p50", "ms"},
	{"world.generate_ms", "ms"},
	{"world.blocks", "count"},
	{"pipeline.stage.beacon_ms", "ms"},
	{"pipeline.stage.demand_ms", "ms"},
	{"pipeline.stage.classify_ms", "ms"},
	{"pipeline.stage.analyze_ms", "ms"},
	{"par.shards", "count"},
	{"par.workers", "count"},
	{"mapbuild.build_ms", "ms"},
	{"cellmap.write_ms", "ms"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles_per_op", "count"},
	{"bench.trace_overhead_ms_p50", "ms"},
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "serve, fresh or pipeline")
	seed := fl.Uint64("seed", 1, "workload seed: same seed, same inputs")
	seconds := fl.Float64("seconds", 10, "length of the timed phase")
	trace := fl.Int("trace", 0, "1: report per-layer metrics from a traced run")
	scale := fl.Float64("scale", 0, "world scale (0: the workload's default)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || *scale < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve|fresh|pipeline, --seconds > 0, --trace 0|1")
		return 2
	}
	o := opts{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, scale: *scale}
	if o.scale == 0 {
		o.scale = w.scale
	}
	work, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("work-%s-%d", w.name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)
	o.workDir = work

	res, err := execute(*w, o, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(raw))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute sets the workload up, runs the timed phase(s), checks outputs,
// and prints the env, check and metric lines; the caller prints the JSON
// result.
func execute(w workload, o opts, out io.Writer) (*result, error) {
	env := environment(w.name, o)
	rawEnv, _ := json.Marshal(env)
	fmt.Fprintf(out, "env %s\n", rawEnv)

	inst, setupSecs, err := w.start(o)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	runtime.GC()

	res := &result{Metrics: make(map[string]metric)}
	var (
		ss     []sample
		ps     phaseStats
		tr     *tracer
		layers map[string]float64
	)
	if !o.trace {
		p := beginPhase()
		ss = inst.run(o.dur, nil)
		ps = p.end()
	} else {
		// Half the time untraced, half traced: the difference of the two
		// medians is the tracing overhead.
		untraced := inst.run(o.dur/2, nil)
		tr = newTracer()
		p := beginPhase()
		ss = inst.run(o.dur/2, tr)
		ps = p.end()
		us := summarize(untraced, o.dur/2, 0, w.tail)
		res.Attempted, res.Failed = us.ops, us.failed
		layers = inst.layers(tr, len(ss))
		layers["runtime.gc_cpu_share"] = ps.gcCPUShare
		layers["runtime.gc_cycles_per_op"] = ratio(float64(ps.gcCycles), float64(len(ss)))
		layers["bench.trace_overhead_ms_p50"] = ms(pct(latencies(ss), 0.5)) - ms(us.p50)
	}
	sum := summarize(ss, ps.wall, w.window, w.tail)
	ss = nil // the samples must not count in the live heap
	heapMB, problems := inst.finish()
	res.Attempted += sum.ops
	res.Failed += sum.failed
	if sum.ops == 0 {
		problems = append(problems, "no op completed in the timed phase")
	}
	res.Attempted = max(res.Attempted, 1)
	res.Correct = res.Failed == 0 && len(problems) == 0
	if len(problems) > 0 && res.Failed == 0 {
		res.Failed = 1
	}
	for _, p := range problems {
		fmt.Fprintf(out, "check FAILED: %s\n", p)
	}
	fmt.Fprintf(out, "checks attempted=%d failed=%d\n", res.Attempted, res.Failed)

	if !o.trace {
		ops := sum.ops
		vals := map[string]float64{
			"setup_s":         median(setupSecs),
			"latency_p50_ms":  ms(sum.p50),
			"latency_tail_ms": ms(sum.tail),
			"items_per_s":     sum.itemsPerSec,
			"cpu_ms_per_op":   ratio(ms(ps.cpu), float64(ops)),
			"alloc_mb_per_op": ratio(float64(ps.allocBytes)/1e6, float64(ops)),
			"heap_live_mb":    heapMB,
		}
		span := fmt.Sprintf("n=%d", ops)
		tail := fmt.Sprintf("p%g n=%d beyond=%d", 100*w.tail, ops, beyond(ops, w.tail))
		if sum.windows > 0 {
			span = fmt.Sprintf("median of %d windows of %v, n=%d", sum.windows, w.window, ops)
			tail = fmt.Sprintf("p%g %s, ~%d beyond per window", 100*w.tail, span, beyond(ops/sum.windows, w.tail))
		}
		counts := map[string]string{
			"setup_s":         fmt.Sprintf("n=%d", len(setupSecs)),
			"latency_p50_ms":  span,
			"latency_tail_ms": tail,
			"items_per_s":     span,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
			c := counts[m.name]
			if c == "" {
				c = fmt.Sprintf("ops=%d", ops)
			}
			fmt.Fprintf(out, "metric %-16s %14.4f %-5s %s\n", m.name, vals[m.name], m.unit, c)
		}
		return res, nil
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
		fmt.Fprintf(out, "layer %-36s %14.4f %s\n", m.name, layers[m.name], m.unit)
	}
	fmt.Fprintf(out, "traced ops=%d spans=%d\n", sum.ops, len(tr.spans))
	traceDir := filepath.Join(buildDir, "traces")
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "trace written to %s\n", path)
	return res, nil
}

// beyond is how many of n samples lie above the nearest-rank p-quantile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(float64(n)*p+0.999999)
}

type env struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	SetupReps  int     `json:"setup_reps"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func environment(name string, o opts) env {
	return env{
		Workload:   name,
		Seed:       o.seed,
		Scale:      o.scale,
		Seconds:    o.dur.Seconds(),
		Trace:      o.trace,
		SetupReps:  setupReps,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the measured source: the git commit when the checkout is a
// repository, otherwise a digest of every Go source and module file.
func commit() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		h := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(h, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				return strings.TrimSpace(string(id))
			}
			return h
		}
		return h
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (path == buildDir || strings.HasPrefix(d.Name(), ".git")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(raw))
		h.Write(raw)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

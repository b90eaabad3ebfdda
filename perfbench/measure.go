package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// pct returns the nearest-rank p-quantile (0 < p <= 1) of ds.
func pct(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is one op of a timed phase: when it completed, measured from the
// start of the phase, its latency, the items it completed, and whether it
// passed its output check.
type sample struct {
	at, lat time.Duration
	items   int
	ok      bool
}

func latencies(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}

// summary is a timed phase's latency and throughput figures.
type summary struct {
	p50, tail   time.Duration
	itemsPerSec float64
	windows     int // 0: figures over the whole phase
	ops, failed int
}

// summarize computes the median and tail latency and the item rate. With
// window > 0 the phase is cut into windows of that length and each figure
// is the median over the full windows, so a burst of CPU steal that hits a
// minority of windows does not move it.
func summarize(ss []sample, wall, window time.Duration, tail float64) summary {
	sum := summary{ops: len(ss)}
	for _, s := range ss {
		if !s.ok {
			sum.failed++
		}
	}
	if window <= 0 || wall < 2*window {
		items := 0
		for _, s := range ss {
			items += s.items
		}
		lat := latencies(ss)
		sum.p50, sum.tail = pct(lat, 0.5), pct(lat, tail)
		sum.itemsPerSec = ratio(float64(items), wall.Seconds())
		return sum
	}
	n := int(wall / window)
	buckets := make([][]sample, n)
	for _, s := range ss {
		if i := int(s.at / window); i < n {
			buckets[i] = append(buckets[i], s)
		}
	}
	var p50s, tails, rates []float64
	for _, b := range buckets {
		items := 0
		for _, s := range b {
			items += s.items
		}
		lat := latencies(b)
		p50s = append(p50s, float64(pct(lat, 0.5)))
		tails = append(tails, float64(pct(lat, tail)))
		rates = append(rates, float64(items)/window.Seconds())
	}
	sum.p50 = time.Duration(median(p50s))
	sum.tail = time.Duration(median(tails))
	sum.itemsPerSec = median(rates)
	sum.windows = n
	return sum
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not call).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// phase brackets a timed phase: wall time, process CPU, bytes allocated,
// GC cycles and the GC's share of the runtime's CPU time.
type phase struct {
	start  time.Time
	cpu    time.Duration
	alloc  uint64
	numGC  uint32
	gcCPU  float64
	totCPU float64
}

type phaseStats struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcCPUShare float64
}

func readGCCPU() (gc, total float64) {
	s := slices.Clone(gcSamples)
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func beginPhase() *phase {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p := &phase{alloc: m.TotalAlloc, numGC: m.NumGC}
	p.gcCPU, p.totCPU = readGCCPU()
	p.cpu = processCPU()
	p.start = time.Now()
	return p
}

func (p *phase) end() phaseStats {
	wall := time.Since(p.start)
	cpu := processCPU() - p.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gc, tot := readGCCPU()
	return phaseStats{
		wall:       wall,
		cpu:        cpu,
		allocBytes: m.TotalAlloc - p.alloc,
		gcCycles:   m.NumGC - p.numGC,
		gcCPUShare: ratio(gc-p.gcCPU, tot-p.totCPU),
	}
}

// liveHeapMB forces full collections and returns the bytes still
// reachable, in MB. Callers keep the workload's output reachable across
// the call. The second collection empties sync.Pool victim caches, which
// survive the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// timedSetup runs setup reps times and returns each run's seconds; every
// run but the last is torn down, the last one's value is returned.
func timedSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var (
		v    T
		secs []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(v)
		}
		t := time.Now()
		var err error
		v, err = setup()
		if err != nil {
			return v, nil, err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return v, secs, nil
}

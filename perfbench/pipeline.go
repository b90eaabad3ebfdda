package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"cellspot/internal/aschar"
	"cellspot/internal/cellmap"
	"cellspot/internal/mapbuild"
	"cellspot/internal/obs"
	"cellspot/internal/pipeline"
)

// The pipeline workload: the offline reproduction behind cmd/experiments
// and `cellspot export`. One op is pipeline.Run, mapbuild.Build and
// Map.Write; a single client repeats it. The op has no set-up of its own,
// so set-up is one untimed op whose map bytes every timed op must
// reproduce.
type pipeInst struct {
	o      opts
	want   [sha256.Size]byte
	buf    bytes.Buffer
	last   *pipeline.Result // the latest op's output, kept reachable
	lastM  *cellmap.Map
	blocks int
	reg    *obs.Registry
}

func startPipeline(o opts) (instance, []float64, error) {
	p := &pipeInst{o: o}
	_, secs, err := timedSetup(setupReps, func() (struct{}, error) {
		sum, err := p.op(nil)
		if err == nil && p.want != sum && p.want != ([sha256.Size]byte{}) {
			err = fmt.Errorf("set-up ops wrote different map bytes for one seed")
		}
		p.want = sum
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, nil, err
	}
	return p, secs, nil
}

// op runs the pipeline once and returns the digest of the written map.
func (p *pipeInst) op(tr *tracer) ([sha256.Size]byte, error) {
	cfg := pipeline.DefaultConfig()
	cfg.World.Scale = p.o.scale
	cfg.World.Seed = p.o.seed
	if tr != nil {
		cfg.Metrics = p.reg
	}
	root := tr.begin("pipeline.op", 0, tr.newReq())
	defer tr.finish(root, 0)
	sp := tr.begin("pipeline.run", root.ID, root.Req)
	r, err := pipeline.Run(cfg)
	tr.finish(sp, 0)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	sp = tr.begin("mapbuild.build", root.ID, root.Req)
	m, err := mapbuild.Build(r.Beacon, cfg.Threshold, "2016-12", mapbuild.Inputs{
		Demand:    r.Demand,
		Rules:     aschar.DefaultRules(r.World.Snapshot),
		ASOf:      r.ASOf,
		CountryOf: r.CountryOf,
	})
	tr.finish(sp, 0)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	sp = tr.begin("cellmap.write", root.ID, root.Req)
	p.buf.Reset()
	err = m.Write(&p.buf)
	tr.finish(sp, p.buf.Len())
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	p.last, p.lastM, p.blocks = r, m, len(r.World.Blocks)
	return sha256.Sum256(p.buf.Bytes()), nil
}

func (p *pipeInst) run(d time.Duration, tr *tracer) []sample {
	if tr != nil {
		p.reg = obs.NewRegistry()
	}
	var ss []sample
	start := time.Now()
	for deadline := start.Add(d); time.Now().Before(deadline); {
		t0 := time.Now()
		sum, err := p.op(tr)
		t1 := time.Now()
		s := sample{at: t1.Sub(start), lat: t1.Sub(t0), items: p.blocks, ok: true}
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: pipeline op: %v\n", err)
			s.ok, s.items = false, 0
		case sum != p.want:
			fmt.Fprintln(os.Stderr, "perfbench: pipeline op wrote different map bytes than the reference op")
			s.ok, s.items = false, 0
		}
		ss = append(ss, s)
	}
	return ss
}

func (p *pipeInst) layers(tr *tracer, ops int) map[string]float64 {
	stage := func(name string) float64 {
		h := p.reg.Histogram("pipeline_stage_seconds", "", nil, obs.L("stage", name))
		return 1000 * ratio(h.Sum(), float64(h.Count()))
	}
	counter := func(name string) float64 {
		return ratio(float64(p.reg.Counter(name, "").Value()), float64(ops))
	}
	spans := tr.byName()
	return map[string]float64{
		"world.generate_ms":          stage("world"),
		"world.blocks":               float64(p.blocks),
		"pipeline.stage.beacon_ms":   stage("beacon"),
		"pipeline.stage.demand_ms":   stage("demand"),
		"pipeline.stage.classify_ms": stage("classify"),
		"pipeline.stage.analyze_ms":  stage("analyze"),
		"par.shards":                 counter("par_shards_total"),
		"par.workers":                counter("par_workers_launched_total"),
		"mapbuild.build_ms":          ms(pct(durations(spans["mapbuild.build"]), 0.5)),
		"cellmap.write_ms":           ms(pct(durations(spans["cellmap.write"]), 0.5)),
	}
}

func (p *pipeInst) finish() (float64, []string) {
	return liveHeapMB(), nil
}

func (p *pipeInst) close() {}

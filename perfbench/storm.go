package main

import (
	"context"
	"fmt"

	"hwatch/internal/scenario"
	"hwatch/internal/sim"
	"hwatch/internal/workload"
)

// storm is the storm/datamining rung at reduced scale on two engine
// shards: thousands of open-loop flows into one aggregator load the shim's
// flow table, per-flow tcp state, timers, workload planning and the
// garbage collector, and it is the only workload that runs sim.Group.
const (
	stormRung   = "storm/datamining"
	stormScale  = 0.3
	stormShards = 2
	// The rung's arrival process: the first flow at 10 ms, arrivals spread
	// over a 100 ms window (see the rung's description in scenario).
	stormStart  = 10 * sim.Millisecond
	stormWindow = 100 * sim.Millisecond
	// stormHits is how often the run's result is served again per round.
	stormHits = 20
)

type stormLoad struct {
	seed    int64
	rung    scenario.Rung
	planned int // flows workload.PlanStorm plans for the config
	// ref is the same spec on one shard: the digest every two-shard run
	// must reproduce, and the baseline of the shard speedup.
	ref   simCall
	refIv interval
}

// stormConfig is the storm's arrival configuration as the rung plans it.
func (s *stormLoad) stormConfig(flows int) workload.StormConfig {
	return workload.StormConfig{
		Port:   scenario.DefaultPort,
		Flows:  flows,
		Sizes:  workload.DataMining(),
		Start:  stormStart,
		Window: stormWindow,
		Rng:    sim.NewRNG(deriveSeed(s.seed, "storm/plan")),
	}
}

// spec builds the storm on shards engine shards. The rung's workload
// keeps per-run state, so every run gets a fresh spec.
func (s *stormLoad) spec(shards int) scenario.Spec {
	sp := *s.rung.Spec(stormScale)
	sp.Dumbbell.Seed = deriveSeed(s.seed, "storm")
	sp.Shards = shards
	return sp
}

func (s *stormLoad) prepare(ctx context.Context) error {
	rung, ok := scenario.LookupRung(stormRung)
	if !ok {
		return fmt.Errorf("rung %q is not registered", stormRung)
	}
	s.rung = rung
	p := s.spec(stormShards).Dumbbell

	// Every planned arrival lands before the horizon, so every planned
	// flow must start.
	plan := workload.PlanStorm(s.stormConfig(int(float64(rung.Flows)*stormScale)), p.ShortSources)
	horizon := p.Duration + p.DrainAfter
	for _, f := range plan {
		if f.At >= horizon {
			return fmt.Errorf("planned arrival at %d ns is past the %d ns horizon", f.At, horizon)
		}
	}
	s.planned = len(plan)

	snap := takeSnapshot()
	ref, err := runSim(ctx, s.spec(1), nil, 0, "storm/1-shard")
	if err != nil {
		return err
	}
	s.refIv = since(snap)
	s.ref = ref
	return nil
}

func (s *stormLoad) round(ctx context.Context, tr *tracer) roundResult {
	var rr roundResult
	root, end := tr.begin("storm.round", 0)
	defer end()

	spec := s.spec(stormShards)
	snap := takeSnapshot()
	c, err := runSim(ctx, spec, tr, root, fmt.Sprintf("storm/%d-shard", stormShards))
	rr.iv = since(snap)
	if err != nil {
		rr.ops = append(rr.ops, err)
		for k := 0; k < stormHits; k++ {
			rr.ops = append(rr.ops, fmt.Errorf("storm: no result to serve"))
		}
		return rr
	}
	rr.setupS = c.setupS()
	rr.coldMs = append(rr.coldMs, c.latencyMs)
	rr.buildS = append(rr.buildS, c.buildS)
	rr.counts.add(c.run)
	rr.ops = append(rr.ops, firstErr(
		checkStarted(c.run, s.planned),
		checkDumbbellRun(c.run, limitsOf(spec.Dumbbell)),
		checkDigest("storm on 2 shards against 1 shard", c.digest, s.ref.digest)))
	hitsSnap := takeSnapshot()
	for k := 0; k < stormHits; k++ {
		ms, digest, err := serveAgain(c.run, tr, root)
		rr.hitMs = append(rr.hitMs, ms)
		rr.ops = append(rr.ops, firstErr(err, checkDigest("storm served again", digest, c.digest)))
	}
	rr.hitsIv = since(hitsSnap)
	return rr
}

// checkStarted requires the storm to start exactly the planned flows.
func checkStarted(r *scenario.Run, planned int) error {
	if r.ShortAll != planned {
		return fmt.Errorf("%s: %d flows started, %d planned", r.Label, r.ShortAll, planned)
	}
	return nil
}

// layerExtras reports the shard diagnosis (the one-shard reference run
// against the untraced two-shard round) and times the storm's planning.
func (s *stormLoad) layerExtras(_ context.Context, untraced roundResult, tr *tracer) (map[string]float64, error) {
	srcs := s.spec(stormShards).Dumbbell.ShortSources
	for i := 0; i < 10; i++ {
		cfg := s.stormConfig(s.planned)
		_, end := tr.begin("workload.plan", 0)
		workload.PlanStorm(cfg, srcs)
		end()
	}
	if untraced.counts.loopNs <= 0 {
		return nil, fmt.Errorf("storm: the untraced round measured no event loop")
	}
	// Both loop times are steal-adjusted: the two runs happen at different
	// moments of a shared host.
	one := float64(s.ref.run.WallNs) * s.refIv.runShare()
	two := untraced.counts.loopNs * untraced.iv.runShare()
	return map[string]float64{
		"workload.plan_ms":  median(tr.durationsMs("workload.plan")),
		"sim.group_speedup": one / two,
		"sim.cpu_s_shards1": s.refIv.cpuS,
		"sim.cpu_s_shards2": untraced.iv.cpuS,
	}, nil
}

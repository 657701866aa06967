package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"hwatch/internal/scenario"
	"hwatch/internal/server"
	"hwatch/internal/server/client"
)

// simCall is one simulation executed through scenario.Spec.RunContext.
type simCall struct {
	run    *scenario.Run
	digest string
	callS  float64 // wall time of the call, including the event loop
	buildS float64 // call start to the engine start (traced runs only)
	// latencyMs runs from the call to a verified result: the call plus
	// the run's digest.
	latencyMs float64
}

// setupS is the call's time outside the event loop: building the
// scenario before it and harvesting the run after it.
func (c simCall) setupS() float64 { return c.callS - float64(c.run.WallNs)/1e9 }

// buildTimer is an observer that notes when the engine is about to start.
// It schedules nothing, so the run's digest is unchanged.
type buildTimer struct{ started time.Time }

func (b *buildTimer) Start(*scenario.RunContext, *scenario.Run)  { b.started = time.Now() }
func (b *buildTimer) Finish(*scenario.RunContext, *scenario.Run) {}

// runSim executes spec and digests the result, recording spans when tr is
// non-nil. spec is not modified.
func runSim(ctx context.Context, spec scenario.Spec, tr *tracer, parent int, name string) (simCall, error) {
	id, end := tr.begin("scenario.run:"+name, parent)
	var bt *buildTimer
	if tr != nil {
		bt = &buildTimer{}
		spec.Observers = append(append([]scenario.Observer(nil), spec.Observers...), bt)
	}
	start := time.Now()
	run, err := spec.RunContext(ctx)
	callS := time.Since(start).Seconds()
	end()
	if err != nil {
		return simCall{}, fmt.Errorf("%s: %w", name, err)
	}
	_, endDigest := tr.begin("harness.digest", id)
	digest := run.DigestHex()
	endDigest()
	c := simCall{
		run:       run,
		digest:    digest,
		callS:     callS,
		latencyMs: time.Since(start).Seconds() * 1e3,
	}
	if bt != nil {
		c.buildS = bt.started.Sub(start).Seconds()
	}
	return c, nil
}

// serveAgain returns a finished run the way hwatchd serves a cached
// result, without HTTP: the run in wire form, encoded to JSON, decoded
// and re-verified against its digest. It returns the latency and the
// re-verified run's digest.
func serveAgain(run *scenario.Run, tr *tracer, parent int) (float64, string, error) {
	start := time.Now()
	id, end := tr.begin("server.serve_again", parent)
	defer end()
	raw, err := json.Marshal(&server.Result{Kind: "spec", Runs: []*server.RunWire{server.WireRun(run)}})
	if err != nil {
		return 0, "", err
	}
	var res server.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return 0, "", err
	}
	_, endVerify := tr.begin("server.client_verify", id)
	runs, err := client.Runs(&res)
	endVerify()
	if err != nil {
		return 0, "", err
	}
	return time.Since(start).Seconds() * 1e3, runs[0].DigestHex(), nil
}

// layerCounts accumulates the per-layer counts a round's runs report.
type layerCounts struct {
	loopNs       float64
	events       float64
	drops        float64
	marks        float64
	timeouts     float64
	retrans      float64
	flowsTracked float64
}

func (l *layerCounts) merge(o layerCounts) {
	l.loopNs += o.loopNs
	l.events += o.events
	l.drops += o.drops
	l.marks += o.marks
	l.timeouts += o.timeouts
	l.retrans += o.retrans
	l.flowsTracked += o.flowsTracked
}

func (l *layerCounts) add(r *scenario.Run) {
	l.loopNs += float64(r.WallNs)
	l.events += float64(r.Events)
	l.drops += float64(r.Drops)
	l.marks += float64(r.Marks)
	l.timeouts += float64(r.Timeouts)
	for _, v := range r.ShortRetrans.Values() {
		l.retrans += v
	}
	if r.ShimStats != nil {
		l.flowsTracked += float64(r.ShimStats.FlowsTracked)
	}
}

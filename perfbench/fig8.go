package main

import (
	"context"
	"fmt"

	"hwatch/internal/experiments"
	"hwatch/internal/scenario"
)

// fig8 is the paper's Fig. 8: DropTail, RED, HWatch and DCTCP on the
// 10 Gb/s dumbbell, one after another on one engine shard. It exercises
// the per-packet path (sim, netem, tcp, every aqm discipline and the
// HWatch shim) with little flow state.
const (
	// fig8Long and fig8Short are Fig. 8's 25+25 sources at scale 0.5. Like
	// experiments.Fig8 at that scale, the 1 s horizon stays and the epoch
	// count becomes 7 (the last begins at the horizon and starts no flow).
	fig8Long   = 12
	fig8Short  = 12
	fig8Epochs = 7
	// fig8Hits is how often each run's result is served again per round.
	fig8Hits = 10
)

// mustFinish names the schemes whose every short flow finishes inside the
// 1 s horizon on every seed. DropTail and RED are held only to starting
// every planned flow: their flows can lose a retransmission to a full
// queue several times in a row, and with the 200 ms RTO floor and its
// backoff a late epoch's flow may still be retrying at the horizon (6 to
// 28 of 72 DropTail flows on seeds other than 42).
var mustFinish = map[scenario.Scheme]bool{scenario.HWatch: true, scenario.DCTCP: true}

type fig8Load struct {
	seed   int64
	params scenario.DumbbellParams
	want   int               // short flows each scheme must finish
	ref    map[string]string // first round's digest per scheme
}

func fig8Params(seed int64) scenario.DumbbellParams {
	p := experiments.PaperDumbbell(fig8Long, fig8Short)
	p.Epochs = fig8Epochs
	p.ByteBuffers = true // as experiments.Fig8: the queue is reported in bytes
	p.Shards = 1
	p.Seed = deriveSeed(seed, "fig8")
	return p
}

func (f *fig8Load) prepare(context.Context) error {
	f.params = fig8Params(f.seed)
	f.want = expectedIncastFlows(f.params)
	f.ref = map[string]string{}
	return nil
}

func (f *fig8Load) round(ctx context.Context, tr *tracer) roundResult {
	var rr roundResult
	root, end := tr.begin("fig8.round", 0)
	defer end()
	schemes := experiments.AllSchemes()
	calls := make([]simCall, len(schemes))
	errs := make([]error, len(schemes))

	snap := takeSnapshot()
	for i, s := range schemes {
		spec := scenario.Spec{
			Kind:     scenario.KindDumbbell,
			Schemes:  []scenario.Share{{Scheme: s}},
			Dumbbell: f.params,
		}
		calls[i], errs[i] = runSim(ctx, spec, tr, root, s.String())
	}
	rr.iv = since(snap)

	// One operation per scheme run and one per result served again, so
	// every round attempts the same operations even when one fails.
	lim := limitsOf(f.params)
	byScheme := map[scenario.Scheme]*scenario.Run{}
	hitsSnap := takeSnapshot()
	for i, s := range schemes {
		if errs[i] != nil {
			for k := 0; k < fig8Hits; k++ {
				rr.ops = append(rr.ops, fmt.Errorf("%s: no result to serve", s))
			}
			continue
		}
		c := calls[i]
		byScheme[s] = c.run
		rr.setupS += c.setupS()
		rr.coldMs = append(rr.coldMs, c.latencyMs)
		rr.buildS = append(rr.buildS, c.buildS)
		rr.counts.add(c.run)
		if f.ref[s.String()] == "" {
			f.ref[s.String()] = c.digest
		}
		flows := checkAllFlowsDone(c.run, f.want)
		if !mustFinish[s] {
			flows = checkStarted(c.run, f.want)
		}
		errs[i] = firstErr(
			flows,
			checkDumbbellRun(c.run, lim),
			checkDigest(s.String()+" against the first round", c.digest, f.ref[s.String()]))
		for k := 0; k < fig8Hits; k++ {
			ms, digest, err := serveAgain(c.run, tr, root)
			rr.hitMs = append(rr.hitMs, ms)
			rr.ops = append(rr.ops, firstErr(err, checkDigest(s.String()+" served again", digest, c.digest)))
		}
	}
	rr.hitsIv = since(hitsSnap)
	for i, s := range schemes {
		if s == scenario.HWatch && errs[i] == nil && byScheme[scenario.DropTail] != nil {
			errs[i] = checkFig8Order(byScheme[s], byScheme[scenario.DropTail])
		}
	}
	rr.ops = append(rr.ops, errs...)
	return rr
}

func (f *fig8Load) layerExtras(context.Context, roundResult, *tracer) (map[string]float64, error) {
	return nil, nil
}

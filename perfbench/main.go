// Command perfbench is the repository's benchmark. It runs one workload
// per process as a closed loop of whole rounds of fixed work, checks every
// output, and prints one JSON line of results:
//
//	perfbench --workload fig8|storm|hwatchd --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line holds the end-to-end metrics (medians over
// rounds); with --trace 1 it holds the per-layer metrics of a profiled
// run. run.sh builds it from the checkout's sources and runs it; README.md
// describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"hwatch/internal/server"
)

// deadline bounds a whole run, so a hang still ends the process in time.
const deadline = 170 * time.Second

// roundResult is what one round of a workload measured and checked.
type roundResult struct {
	iv     interval  // the round's fixed work
	hitsIv interval  // the stretch in which results were served again
	setupS float64   // time outside event loops, plus server start
	coldMs []float64 // submission to verified result, executed runs
	hitMs  []float64 // submission to verified result, results served again
	ops    []error   // one entry per operation; nil = passed every check
	counts layerCounts
	buildS []float64 // scenario build time per run (traced rounds only)

	stats    *server.Stats // hwatchd's counters at the end of the round
	resultKB []float64     // hwatchd reply bodies
}

// load is one benchmark workload.
type load interface {
	// prepare makes the inputs from the seed and any reference outputs
	// the checks compare against. It runs before the clock starts.
	prepare(ctx context.Context) error
	// round runs the fixed work once and checks it; tr is nil when
	// untraced.
	round(ctx context.Context, tr *tracer) roundResult
	// layerExtras returns per-layer metrics only this workload measures,
	// given the untraced round that followed the traced ones.
	layerExtras(ctx context.Context, untraced roundResult, tr *tracer) (map[string]float64, error)
}

func newLoad(name string, seed int64) (load, error) {
	switch name {
	case "fig8":
		return &fig8Load{seed: seed}, nil
	case "storm":
		return &stormLoad{seed: seed}, nil
	case "hwatchd":
		return &hwatchdLoad{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q: want fig8, storm or hwatchd", name)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: fig8, storm or hwatchd")
	seed := flag.Int64("seed", 1, "workload seed; the program sees only the inputs made from it")
	seconds := flag.Int("seconds", 20, "how long to keep starting rounds")
	traceFlag := flag.Int("trace", 0, "1 = profiled run reporting per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	w, err := newLoad(name, seed)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	steal0 := readHostCPU().steal
	if err := w.prepare(ctx); err != nil {
		return fmt.Errorf("prepare %s: %w", name, err)
	}
	var rep report
	var raw map[string]float64
	if traced {
		rep, err = tracedRun(ctx, w, name, seed, seconds)
	} else {
		rep, raw, err = measuredRun(ctx, w, seconds)
	}
	if err != nil {
		return err
	}
	host, err := json.Marshal(struct {
		Host       hostInfo           `json:"host"`
		Unadjusted map[string]float64 `json:"unadjusted,omitempty"`
	}{newHostInfo(readHostCPU().steal - steal0), raw})
	if err != nil {
		return err
	}
	last, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(host))
	fmt.Println(string(last))
	return nil
}

// rounds runs whole rounds until seconds have passed (at least one).
func rounds(ctx context.Context, w load, seconds int, tr *tracer) []roundResult {
	var out []roundResult
	start := time.Now()
	for len(out) == 0 || time.Since(start) < time.Duration(seconds)*time.Second {
		out = append(out, w.round(ctx, tr))
		if ctx.Err() != nil {
			break
		}
	}
	return out
}

// tally counts the operations attempted and failed, logging each failure.
func tally(rs []roundResult) (attempted, failed int) {
	for _, r := range rs {
		for _, err := range r.ops {
			attempted++
			if err != nil {
				failed++
				fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
			}
		}
	}
	return attempted, failed
}

// measuredRun reports the end-to-end metrics. Every wall-clock reading
// is scaled by the share of runnable CPU time the hypervisor left the
// guest while it was taken (interval.runShare); the readings as taken are
// returned too, for the line beside the result.
func measuredRun(ctx context.Context, w load, seconds int) (report, map[string]float64, error) {
	rs := rounds(ctx, w, seconds, nil)
	peak := peakRSSMB()
	if err := ctx.Err(); err != nil {
		return report{}, nil, fmt.Errorf("run cut short: %w", err)
	}
	attempted, failed := tally(rs)
	var setup, setupRaw, wall, wallRaw, cpu, alloc []float64
	for _, r := range rs {
		share := r.iv.runShare()
		setup = append(setup, r.setupS*share)
		setupRaw = append(setupRaw, r.setupS)
		wall = append(wall, r.iv.wallS*share)
		wallRaw = append(wallRaw, r.iv.wallS)
		cpu = append(cpu, r.iv.cpuS)
		alloc = append(alloc, r.iv.allocBytes/(1<<20))
	}
	cold, hit := latencies(rs, true)
	coldRaw, hitRaw := latencies(rs, false)
	raw := map[string]float64{
		"setup_s":     median(setupRaw),
		"wall_s":      median(wallRaw),
		"cold_p50_ms": median(coldRaw),
		"hit_p50_ms":  median(hitRaw),
	}
	return report{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":     {median(setup), "s"},
			"wall_s":      {median(wall), "s"},
			"cpu_s":       {median(cpu), "s"},
			"alloc_mb":    {median(alloc), "MiB"},
			"peak_rss_mb": {peak, "MiB"},
			"cold_p50_ms": {median(cold), "ms"},
			"hit_p50_ms":  {median(hit), "ms"},
		},
	}, raw, nil
}

// latencies pools the rounds' cold and hit samples, scaled by each
// round's runnable share when adjust is set.
func latencies(rs []roundResult, adjust bool) (cold, hit []float64) {
	for _, r := range rs {
		share, hitShare := 1.0, 1.0
		if adjust {
			share, hitShare = r.iv.runShare(), r.hitsIv.runShare()
		}
		for _, v := range r.coldMs {
			cold = append(cold, v*share)
		}
		for _, v := range r.hitMs {
			hit = append(hit, v*hitShare)
		}
	}
	return cold, hit
}

// tracedRun runs profiled rounds for seconds, then one untraced round to
// compare them with, and reports per-layer metrics per round.
func tracedRun(ctx context.Context, w load, name string, seed int64, seconds int) (report, error) {
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, fmt.Errorf("starting CPU profile: %w", err)
	}
	rs := rounds(ctx, w, seconds, tr)
	pprof.StopCPUProfile()
	untraced := w.round(ctx, nil)
	if err := ctx.Err(); err != nil {
		return report{}, fmt.Errorf("run cut short: %w", err)
	}
	extras, err := w.layerExtras(ctx, untraced, tr)
	if err != nil {
		return report{}, err
	}
	attempted, failed := tally(append(rs, untraced))

	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return report{}, err
	}
	self := selfSeconds(samples)
	n := float64(len(rs))

	var counts layerCounts
	var gcCPU, gcCycles, allocObjects float64
	var buildS, kb, walls []float64
	var stats server.Stats
	for _, r := range rs {
		counts.merge(r.counts)
		gcCPU += r.iv.gcCPUS
		gcCycles += r.iv.gcCycles
		allocObjects += r.iv.allocObjects
		walls = append(walls, r.iv.wallS*r.iv.runShare())
		buildS = append(buildS, r.buildS...)
		kb = append(kb, r.resultKB...)
		if r.stats != nil {
			stats.Executed += r.stats.Executed
			stats.CacheHits += r.stats.CacheHits
			stats.Deduped += r.stats.Deduped
			stats.Rejected += r.stats.Rejected
		}
	}
	cold, hit := latencies(rs, true)
	nsPerEvent := 0.0
	if counts.events > 0 {
		nsPerEvent = counts.loopNs / counts.events
	}
	m := map[string]metric{
		"sim.loop_s":              {counts.loopNs / 1e9 / n, "s"},
		"sim.self_s":              {self["sim"] / n, "s"},
		"sim.ns_per_event":        {nsPerEvent, "ns"},
		"sim.events":              {counts.events / n, "count"},
		"gc.cpu_s":                {gcCPU / n, "s"},
		"gc.cycles":               {gcCycles / n, "count"},
		"heap.alloc_objects":      {allocObjects / n, "count"},
		"core.self_s":             {self["core"] / n, "s"},
		"core.flows_tracked":      {counts.flowsTracked / n, "count"},
		"netem.self_s":            {self["netem"] / n, "s"},
		"tcp.self_s":              {self["tcp"] / n, "s"},
		"aqm.self_s":              {self["aqm"] / n, "s"},
		"netem.drops":             {counts.drops / n, "count"},
		"netem.marks":             {counts.marks / n, "count"},
		"tcp.timeouts":            {counts.timeouts / n, "count"},
		"tcp.retrans":             {counts.retrans / n, "count"},
		"scenario.build_s":        {median(buildS), "s"},
		"scenario.parse_ms":       {median(tr.durationsMs("scenario.parse")), "ms"},
		"server.digest_req_ms":    {median(tr.durationsMs("server.digest_req")), "ms"},
		"server.result_kb":        {median(kb), "KiB"},
		"server.client_verify_ms": {median(tr.durationsMs("server.client_verify")), "ms"},
		"harness.digest_ms":       {median(tr.durationsMs("harness.digest")), "ms"},
		"server.executed":         {float64(stats.Executed) / n, "count"},
		"server.cache_hits":       {float64(stats.CacheHits) / n, "count"},
		"server.deduped":          {float64(stats.Deduped) / n, "count"},
		"server.rejected":         {float64(stats.Rejected) / n, "count"},
		"workload.self_s":         {self["workload"] / n, "s"},
		"scenario.self_s":         {self["scenario"] / n, "s"},
		"stats.self_s":            {self["stats"] / n, "s"},
		"server.self_s":           {self["server"] / n, "s"},
		"harness.self_s":          {self["harness"] / n, "s"},
		"other.self_s":            {self["other"] / n, "s"},
		"cold_p90_ms":             {quantile(cold, 0.9), "ms"},
		"hit_p90_ms":              {quantile(hit, 0.9), "ms"},
		"bench.trace_overhead":    {median(walls) / (untraced.iv.wallS * untraced.iv.runShare()), "ratio"},
		"workload.plan_ms":        {0, "ms"},
		"sim.group_speedup":       {0, "ratio"},
		"sim.cpu_s_shards1":       {0, "s"},
		"sim.cpu_s_shards2":       {0, "s"},
	}
	for k, v := range extras {
		mt, ok := m[k]
		if !ok {
			return report{}, fmt.Errorf("workload reported unknown metric %q", k)
		}
		mt.Value = v
		m[k] = mt
	}
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	path := filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := tr.write(path); err != nil {
		return report{}, fmt.Errorf("writing spans: %w", err)
	}
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

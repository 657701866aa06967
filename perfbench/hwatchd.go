package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"hwatch/internal/scenario"
	"hwatch/internal/server"
	"hwatch/internal/server/client"
)

// hwatchd is an in-process server.New behind loopback HTTP, driven by two
// closed-loop client callers. It is the only workload for admission, the
// result cache, the wire form and its digest re-verification. Every round
// starts a fresh server, so every round repeats the same cold runs.
const (
	hwCallers = 2
	// hwCold distinct specs per caller per round; every fourth carries
	// the chaos schedule below.
	hwCold = 12
	// hwHits resubmissions of each finished spec per round.
	hwHits = 2
)

// chaosSchedule is examples/chaos_reorder_jitter.json: reordering,
// duplication and jitter windows inside the specs' 500 ms horizon.
const chaosSchedule = `[
  {"kind": "reorder", "at_ms": 100, "until_ms": 250,
   "prob": 0.05, "hold_us": 2000},
  {"kind": "duplicate", "at_ms": 150, "until_ms": 300,
   "prob": 0.05, "copies": 2, "egress": true},
  {"kind": "jitter", "at_ms": 300, "until_ms": 380,
   "dist": "pareto", "delay_us": 100, "jitter_us": 50}
]`

// hwSchemes are the schemes the cold specs cycle through.
var hwSchemes = []string{"hwatch", "dctcp", "droptail", "red"}

// specIn is one submission body and its canonical digest.
type specIn struct {
	body   []byte
	digest string
}

type hwatchdLoad struct {
	seed   int64
	cold   [hwCallers][]specIn
	shared specIn // both callers submit it at once (single flight)
	probe  specIn // posted to /api/v1/digest
	// direct holds run digests of a sample of cold specs run through
	// scenario in this process, keyed by canonical digest.
	direct map[string]string
}

// hwSpec is cold spec i of caller k.
func hwSpec(seed int64, name string, i int) (scenario.FileSpec, error) {
	fs := scenario.FileSpec{
		Kind:           "dumbbell",
		Scheme:         hwSchemes[i%len(hwSchemes)],
		LongSources:    2,
		ShortSources:   4,
		BottleneckGbps: 1,
		DurationMs:     300,
		DrainAfterMs:   200,
		Epochs:         2,
		Seed:           deriveSeed(seed, name),
	}
	if i%4 == 3 {
		if err := json.Unmarshal([]byte(chaosSchedule), &fs.Faults); err != nil {
			return fs, err
		}
	}
	return fs, nil
}

// newSpecIn encodes a spec and computes its digest the way a client would.
func newSpecIn(fs scenario.FileSpec) (specIn, error) {
	body, err := json.Marshal(&fs)
	if err != nil {
		return specIn{}, err
	}
	parsed, err := scenario.ParseSpec(body)
	if err != nil {
		return specIn{}, err
	}
	d, err := parsed.CanonicalDigest()
	if err != nil {
		return specIn{}, err
	}
	return specIn{body: body, digest: d}, nil
}

func (h *hwatchdLoad) specs() []specIn {
	var all []specIn
	for _, c := range h.cold {
		all = append(all, c...)
	}
	return append(all, h.shared, h.probe)
}

func (h *hwatchdLoad) prepare(ctx context.Context) error {
	mk := func(name string, i int) (specIn, error) {
		fs, err := hwSpec(h.seed, name, i)
		if err != nil {
			return specIn{}, err
		}
		return newSpecIn(fs)
	}
	for k := range h.cold {
		for i := 0; i < hwCold; i++ {
			sp, err := mk(fmt.Sprintf("hwatchd/caller%d/%d", k, i), i)
			if err != nil {
				return err
			}
			h.cold[k] = append(h.cold[k], sp)
		}
	}
	var err error
	if h.shared, err = mk("hwatchd/shared", 0); err != nil {
		return err
	}
	if h.probe, err = mk("hwatchd/probe", 1); err != nil {
		return err
	}
	// Run a plain and a faulted spec directly: the server must return the
	// same run digests for them.
	h.direct = map[string]string{}
	for _, sp := range []specIn{h.cold[0][0], h.cold[1][3]} {
		fs, err := scenario.ParseSpec(sp.body)
		if err != nil {
			return err
		}
		r, err := fs.RunContext(ctx)
		if err != nil {
			return fmt.Errorf("direct run: %w", err)
		}
		h.direct[sp.digest] = r.DigestHex()
	}
	return nil
}

// recorder is an http.RoundTripper that notes the status and body size of
// the last reply. Each caller owns one and uses it sequentially.
type recorder struct {
	base   http.RoundTripper
	mu     sync.Mutex
	status int
	n      int64
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := r.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.status, r.n = resp.StatusCode, 0
	r.mu.Unlock()
	resp.Body = &countingBody{ReadCloser: resp.Body, r: r}
	return resp, nil
}

func (r *recorder) last() (int, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status, r.n
}

type countingBody struct {
	io.ReadCloser
	r *recorder
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.r.mu.Lock()
	b.r.n += int64(n)
	b.r.mu.Unlock()
	return n, err
}

// caller is one closed-loop client of the server.
type caller struct {
	c   *client.Client
	rec *recorder
	tr  *tracer
}

func newCaller(base string, tr *tracer) *caller {
	rec := &recorder{base: http.DefaultTransport.(*http.Transport).Clone()}
	return &caller{c: client.New(base, &http.Client{Transport: rec}), rec: rec, tr: tr}
}

func (cl *caller) close() { cl.rec.base.(*http.Transport).CloseIdleConnections() }

// reply checks the status of the caller's last reply.
func (cl *caller) reply(what string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if st, _ := cl.rec.last(); st != http.StatusOK {
		return fmt.Errorf("%s: reply %d, want 200", what, st)
	}
	return nil
}

// outcome is one submission as the caller saw it.
type outcome struct {
	ms     float64
	kb     float64
	cached bool
	runs   []*scenario.Run
	err    error
}

// submit posts a spec, waits for its result and re-verifies it: the
// result must carry the spec's digest and every run must re-verify its
// own digest.
func (cl *caller) submit(ctx context.Context, sp specIn, parent int) outcome {
	start := time.Now()
	id, end := cl.tr.begin("server.submit", parent)
	res, err := cl.c.SubmitSpec(ctx, sp.body)
	end()
	_, n := cl.rec.last()
	o := outcome{kb: float64(n) / 1024}
	if o.err = cl.reply("submit", err); o.err != nil {
		return o
	}
	o.cached = res.Cached
	if o.err = checkDigest("result", res.Digest, sp.digest); o.err != nil {
		return o
	}
	_, endVerify := cl.tr.begin("server.client_verify", id)
	o.runs, o.err = client.Runs(res)
	endVerify()
	if o.err == nil && len(o.runs) != 1 {
		o.err = fmt.Errorf("result holds %d runs, want 1", len(o.runs))
	}
	o.ms = time.Since(start).Seconds() * 1e3
	return o
}

// digestOf asks the server for a spec's content address.
func (cl *caller) digestOf(ctx context.Context, sp specIn, parent int) error {
	_, end := cl.tr.begin("server.digest_req", parent)
	d, err := cl.c.Digest(ctx, &server.JobRequest{Kind: "spec", Spec: sp.body})
	end()
	if err := cl.reply("digest", err); err != nil {
		return err
	}
	return checkDigest("digest request", d, sp.digest)
}

// script is one caller's round: its cold specs, hwHits passes of hits
// over them, the shared spec at the same moment as the other caller, and
// one digest request. It returns one outcome per submission, in order.
func (h *hwatchdLoad) script(ctx context.Context, k int, cl *caller, ready *sync.WaitGroup, parent int) ([]outcome, error) {
	var out []outcome
	for _, sp := range h.cold[k] {
		out = append(out, cl.submit(ctx, sp, parent))
	}
	for pass := 0; pass < hwHits; pass++ {
		for _, sp := range h.cold[k] {
			out = append(out, cl.submit(ctx, sp, parent))
		}
	}
	ready.Done()
	ready.Wait()
	out = append(out, cl.submit(ctx, h.shared, parent))
	return out, cl.digestOf(ctx, h.probe, parent)
}

// startServer brings a server up on a loopback port and returns its base
// URL and the function that stops it and waits for it to end.
func startServer(ctx context.Context) (string, func(), error) {
	srv := server.New(ctx, server.Config{Parallel: hwCallers, CacheSize: 4 * hwCallers * (hwCold + 1)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	stop := func() {
		_ = hs.Close() // no request is in flight: every caller has returned
		<-served
		srv.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// waitHealthy polls /api/v1/healthz until the server answers 200.
func waitHealthy(ctx context.Context, base string) error {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

func (h *hwatchdLoad) round(ctx context.Context, tr *tracer) roundResult {
	var rr roundResult
	root, end := tr.begin("hwatchd.round", 0)
	defer end()
	nOps := hwCallers*(hwCold*(1+hwHits)+1+1) + 1 // submissions, digest requests, stats
	fail := func(err error) roundResult {
		for len(rr.ops) < nOps {
			rr.ops = append(rr.ops, err)
		}
		return rr
	}

	t0 := time.Now()
	base, stop, err := startServer(ctx)
	if err != nil {
		return fail(fmt.Errorf("starting server: %w", err))
	}
	defer stop()
	if err := waitHealthy(ctx, base); err != nil {
		return fail(fmt.Errorf("server never became healthy: %w", err))
	}
	rr.setupS = time.Since(t0).Seconds()

	callers := make([]*caller, hwCallers)
	for k := range callers {
		callers[k] = newCaller(base, tr)
		defer callers[k].close()
	}
	outs := make([][]outcome, hwCallers)
	digestErrs := make([]error, hwCallers)
	var wg, ready sync.WaitGroup
	ready.Add(hwCallers)
	snap := takeSnapshot()
	for k := range callers {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			outs[k], digestErrs[k] = h.script(ctx, k, callers[k], &ready, root)
		}(k)
	}
	wg.Wait()
	rr.iv = since(snap)
	rr.hitsIv = rr.iv // hits are part of the callers' script

	st, err := callers[0].c.Stats(ctx)
	statsErr := callers[0].reply("stats", err)
	if statsErr == nil {
		rr.stats = st
		statsErr = checkStats(st, int64(hwCallers*hwCold+1))
	}
	rr.ops = append(rr.ops, statsErr)
	rr.ops = append(rr.ops, digestErrs...)

	var shared []string
	for k, out := range outs {
		coldDigest := map[string]string{} // spec digest -> run digest
		for i, o := range out {
			var sp specIn
			kind := "cold"
			switch {
			case i < hwCold:
				sp = h.cold[k][i]
			case i < hwCold*(1+hwHits):
				sp, kind = h.cold[k][i%hwCold], "hit"
			default:
				sp, kind = h.shared, "shared"
			}
			rr.resultKB = append(rr.resultKB, o.kb)
			if o.err != nil {
				rr.ops = append(rr.ops, fmt.Errorf("%s submission: %w", kind, o.err))
				continue
			}
			got := o.runs[0].DigestHex()
			var err error
			switch kind {
			case "cold":
				coldDigest[sp.digest] = got
				rr.coldMs = append(rr.coldMs, o.ms)
				rr.setupS += o.ms/1e3 - float64(o.runs[0].WallNs)/1e9
				rr.counts.add(o.runs[0])
				if want, ok := h.direct[sp.digest]; ok {
					err = checkDigest("server against a direct run", got, want)
				}
				if err == nil && o.cached {
					err = fmt.Errorf("first submission of %s served from the cache", sp.digest[:12])
				}
			case "hit":
				rr.hitMs = append(rr.hitMs, o.ms)
				err = checkDigest("hit against its cold run", got, coldDigest[sp.digest])
				if err == nil && !o.cached {
					err = fmt.Errorf("resubmission of %s ran again", sp.digest[:12])
				}
			case "shared":
				shared = append(shared, got)
			}
			rr.ops = append(rr.ops, err)
		}
	}
	// The last operation is the last caller's single-flight submission.
	if len(shared) == hwCallers && shared[0] != shared[1] {
		rr.ops[len(rr.ops)-1] = fmt.Errorf("single-flight callers got digests %s and %s", shared[0], shared[1])
	}
	return rr
}

// checkStats requires one execution per distinct spec submitted, whatever
// the interleaving, and no rejected submission.
func checkStats(st *server.Stats, distinct int64) error {
	if st.Executed != distinct {
		return fmt.Errorf("stats: executed %d, want %d distinct specs", st.Executed, distinct)
	}
	if st.Rejected != 0 {
		return fmt.Errorf("stats: %d submissions rejected", st.Rejected)
	}
	return nil
}

// layerExtras times parsing and digesting each spec as the server does on
// admission, and the scenario build of the directly run sample.
func (h *hwatchdLoad) layerExtras(ctx context.Context, _ roundResult, tr *tracer) (map[string]float64, error) {
	for _, sp := range h.specs() {
		_, end := tr.begin("scenario.parse", 0)
		fs, err := scenario.ParseSpec(sp.body)
		if err == nil {
			_, err = fs.CanonicalDigest()
		}
		end()
		if err != nil {
			return nil, err
		}
	}
	var builds []float64
	for _, sp := range []specIn{h.cold[0][0], h.cold[1][3]} {
		fs, err := scenario.ParseSpec(sp.body)
		if err != nil {
			return nil, err
		}
		c, err := runSim(ctx, *fs.Scenario(), tr, 0, "hwatchd/direct")
		if err != nil {
			return nil, err
		}
		builds = append(builds, c.buildS)
	}
	return map[string]float64{"scenario.build_s": median(builds)}, nil
}

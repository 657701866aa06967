package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"hwatch/internal/scenario"
	"hwatch/internal/server"
	"hwatch/internal/sim"
)

// tinyRun is a small dumbbell run every check must pass.
func tinyRun(t *testing.T) (*scenario.Run, scenario.DumbbellParams) {
	t.Helper()
	p := scenario.PaperDumbbell(2, 2)
	p.Duration = 200 * sim.Millisecond
	p.Epochs = 1
	p.ByteBuffers = true
	p.Seed = 7
	r, err := (&scenario.Spec{
		Kind:     scenario.KindDumbbell,
		Schemes:  []scenario.Share{{Scheme: scenario.HWatch}},
		Dumbbell: p,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, p
}

func failedOps(ops ...error) int {
	_, failed := tally([]roundResult{{ops: ops}})
	return failed
}

func TestChecksPassOnASoundRun(t *testing.T) {
	r, p := tinyRun(t)
	want := expectedIncastFlows(p)
	if want != 2 {
		t.Fatalf("expected incast flows = %d, want 2", want)
	}
	if n := failedOps(checkAllFlowsDone(r, want), checkDumbbellRun(r, limitsOf(p)), checkStarted(r, want)); n != 0 {
		t.Fatalf("%d checks failed on a sound run", n)
	}
}

func TestFlowCountOneShortFails(t *testing.T) {
	r, p := tinyRun(t)
	want := expectedIncastFlows(p)
	short := *r
	short.ShortDone--
	if failedOps(checkAllFlowsDone(&short, want)) != 1 {
		t.Error("one unfinished short flow passed checkAllFlowsDone")
	}
	if failedOps(checkStarted(r, want+1)) != 1 {
		t.Error("a storm one flow short of its plan passed checkStarted")
	}
	over := *r
	over.ShortDone = over.ShortAll + 1
	if failedOps(checkDumbbellRun(&over, limitsOf(p))) != 1 {
		t.Error("more flows done than started passed checkDumbbellRun")
	}
}

func TestOutputPropertiesFail(t *testing.T) {
	r, p := tinyRun(t)
	lim := limitsOf(p)

	fast := *r
	fast.ShortFCTms = scenario.Run{}.ShortFCTms
	fast.ShortFCTms.Add(lim.baseRTTms / 2)
	if failedOps(checkDumbbellRun(&fast, lim)) != 1 {
		t.Error("an FCT below the base RTT passed")
	}

	deep := *r
	deep.QueueBytes.T = []int64{1}
	deep.QueueBytes.V = []float64{lim.bufferBytes + 1}
	if failedOps(checkDumbbellRun(&deep, lim)) != 1 {
		t.Error("a queue over its buffer passed")
	}

	neg := *r
	neg.Utilization.T = []int64{1}
	neg.Utilization.V = []float64{-0.1}
	if failedOps(checkDumbbellRun(&neg, lim)) != 1 {
		t.Error("a negative utilization passed")
	}

	if failedOps(checkFig8Order(r, r)) != 1 {
		t.Error("an HWatch mean FCT equal to DropTail's passed")
	}
}

func TestWrongDigestFails(t *testing.T) {
	r, _ := tinyRun(t)
	if failedOps(checkDigest("run", r.DigestHex(), r.DigestHex())) != 0 {
		t.Fatal("a matching digest failed")
	}
	if failedOps(checkDigest("run", r.DigestHex(), "0000000000000000")) != 1 {
		t.Error("a wrong expected digest passed")
	}
	if failedOps(checkStats(&server.Stats{Executed: 24}, 25)) != 1 {
		t.Error("stats one execution short passed")
	}
	if failedOps(checkStats(&server.Stats{Executed: 25, Rejected: 1}, 25)) != 1 {
		t.Error("stats with a rejection passed")
	}
}

// fakeServer answers every job submission with status and a result that
// is otherwise valid for sp.
func fakeServer(t *testing.T, status int, sp specIn, r *scenario.Run) *httptest.Server {
	t.Helper()
	body, err := json.Marshal(&server.Result{Kind: "spec", Digest: sp.digest, Runs: []*server.RunWire{server.WireRun(r)}})
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write(body)
	}))
}

func TestNon200ReplyFails(t *testing.T) {
	r, _ := tinyRun(t)
	sp := specIn{body: []byte(`{"kind":"dumbbell"}`), digest: "abc"}
	for _, tc := range []struct {
		status int
		fails  bool
	}{
		{http.StatusOK, false},
		{http.StatusAccepted, true}, // a 2xx the client itself accepts
		{http.StatusInternalServerError, true},
	} {
		srv := fakeServer(t, tc.status, sp, r)
		cl := newCaller(srv.URL, nil)
		o := cl.submit(context.Background(), sp, 0)
		cl.close()
		srv.Close()
		if got := failedOps(o.err) == 1; got != tc.fails {
			t.Errorf("status %d: failed=%v, want %v (err %v)", tc.status, got, tc.fails, o.err)
		}
	}

	srv := fakeServer(t, http.StatusOK, specIn{digest: "other"}, r)
	defer srv.Close()
	cl := newCaller(srv.URL, nil)
	defer cl.close()
	if o := cl.submit(context.Background(), sp, 0); failedOps(o.err) != 1 {
		t.Error("a result carrying another spec's digest passed")
	}
}

func TestLayerAttribution(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"hwatch/internal/sim.(*Engine).RunUntil"}, "sim"},
		// A standard-library frame counts toward the program frame above it.
		{[]string{"sort.Slice", "container/heap.Push", "hwatch/internal/netem.(*Port).Send"}, "netem"},
		{[]string{"hwatch/internal/binpack.(*Batcher).Add"}, "core"},
		{[]string{"hwatch/internal/topo.NewDumbbell", "hwatch/internal/scenario.(*Spec).RunContext"}, "scenario"},
		{[]string{"hwatch/internal/harness.Map[...].func1"}, "harness"},
		{[]string{"hwatch/internal/server/client.Runs"}, "server"},
		// Write barriers and assists are GC work wherever they run.
		{[]string{"runtime.gcWriteBarrier2", "hwatch/internal/tcp.(*Sender).onAck"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
		{[]string{"hwatch/internal/model.Bound"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	self := selfSeconds(samples)
	if self["bench"] <= 0 {
		t.Fatalf("no CPU charged to the benchmark's own spin loop: %v", self)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if !found {
		t.Error("no sample names the spin function")
	}
}

func TestDeriveSeed(t *testing.T) {
	if deriveSeed(1, "fig8") != deriveSeed(1, "fig8") {
		t.Fatal("deriveSeed is not deterministic")
	}
	seen := map[int64]bool{}
	for _, s := range []int64{0, 1, 2} {
		for _, name := range []string{"fig8", "storm", "hwatchd/shared"} {
			v := deriveSeed(s, name)
			if v <= 0 || seen[v] {
				t.Fatalf("deriveSeed(%d, %q) = %d: not a fresh positive seed", s, name, v)
			}
			seen[v] = true
		}
	}
}

func TestRunShare(t *testing.T) {
	if got := (interval{hostBusyS: 3, stealS: 1}).runShare(); got != 0.75 {
		t.Errorf("3 s busy, 1 s stolen: share %v, want 0.75", got)
	}
	if got := (interval{hostBusyS: 3}).runShare(); got != 1 {
		t.Errorf("nothing stolen: share %v, want 1", got)
	}
	if got := (interval{}).runShare(); got != 1 {
		t.Errorf("no host counters: share %v, want 1", got)
	}
}

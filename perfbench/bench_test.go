package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"mermaid/internal/machine"
	"mermaid/internal/stochastic"
)

// Small versions of the four workloads, built by the same constructors.
func smallWorkloads() []*workload {
	return []*workload{
		jacobiWorkload("detailed-jacobi", 2, 2, 0, 64, 1),
		jacobiWorkload("sharded-jacobi", 2, 2, 2, 64, 1),
		taskRandomWorkload("task-random", 4, 2, 200, 64),
		smpWorkload("smp-coherence", 2, 20),
	}
}

func runSmall(t *testing.T, w *workload) (*instance, *machine.Result) {
	t.Helper()
	in, err := w.setup(7)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := in.run()
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return in, res
}

func TestExtractFindsEveryCounter(t *testing.T) {
	for _, w := range smallWorkloads() {
		in, res := runSmall(t, w)
		c := extract(res)
		if err := checkResult(w, in.m, c); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		nonzero := map[string]float64{"pearl.events": float64(c.events)}
		if w.layers&layerCPU != 0 {
			nonzero["cpu.instructions"] = float64(c.instructions)
		}
		if w.layers&layerCache != 0 {
			nonzero["cache.accesses"] = float64(c.cacheAccesses())
			nonzero["cache.coherence_txns"] = float64(c.coherence)
			nonzero["bus.transactions"] = float64(c.busTxns)
		}
		if w.layers&layerNetwork != 0 {
			nonzero["network.messages"] = float64(c.messages)
			nonzero["network.hops"] = c.hops()
		}
		for name, v := range nonzero {
			if v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, v)
			}
		}
	}
}

func TestCheckResultRejectsBrokenInvariants(t *testing.T) {
	w := smallWorkloads()[0]
	in, res := runSmall(t, w)
	good := extract(res)
	for name, mutate := range map[string]func(c *counters){
		"lost message":    func(c *counters) { c.recvs-- },
		"busy past end":   func(c *counters) { c.maxBusy = c.cycles + 1 },
		"missing layer":   func(c *counters) { c.found &^= layerCache },
		"unsent injected": func(c *counters) { c.messages++ },
	} {
		c := good
		mutate(&c)
		if err := checkResult(w, in.m, c); err == nil {
			t.Errorf("%s: checkResult accepted it", name)
		}
	}
}

func TestDigestRejectsPerturbedResult(t *testing.T) {
	w := smallWorkloads()[0]
	in, res := runSmall(t, w)
	b := &bench{w: w, seed: 7, rep: &report{workload: w.name, samples: map[string][]float64{}, stderr: io.Discard}}
	if _, ok := b.verify(in, res); !ok {
		t.Fatal("unperturbed result failed its check")
	}
	// Any simulated value anywhere in the stats tree is covered.
	leaf := res.Stats
	for len(leaf.Subsets) > 0 {
		leaf = leaf.Subsets[len(leaf.Subsets)-1]
	}
	leaf.Metrics[len(leaf.Metrics)-1].Value++
	if _, ok := b.verify(in, res); ok {
		t.Fatal("perturbed result passed its check")
	}
	if b.rep.failed != 1 {
		t.Fatalf("failed = %d, want 1", b.rep.failed)
	}
}

func TestPinnedDigestsCoverEveryWorkload(t *testing.T) {
	for _, w := range workloads() {
		if _, ok, err := pinnedDigest(w.name, defaultSeed); err != nil || !ok {
			t.Errorf("%s: no digest pinned at seed %d (err %v)", w.name, defaultSeed, err)
		}
		if _, ok, _ := pinnedDigest(w.name, defaultSeed+1); ok {
			t.Errorf("%s: a digest applies at a seed it was not pinned at", w.name)
		}
	}
}

// RunStochastic is Sources then Run; the benchmark times the two apart.
func TestRunStochasticMatchesSourcesThenRun(t *testing.T) {
	w := smallWorkloads()[2]
	_, res := runSmall(t, w)
	m, err := machine.New(w.config(7))
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.RunStochastic(taskDesc(16, 2, 200, 64, 7))
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := digestOf(res)
	d2, _ := digestOf(want)
	if d1 != d2 {
		t.Fatalf("Sources+Run %s, RunStochastic %s", d1, d2)
	}
}

func TestShardedMatchesOneShard(t *testing.T) {
	b := &bench{w: smallWorkloads()[1], seed: 7, rep: &report{samples: map[string][]float64{}, stderr: io.Discard}}
	b.checkShards()
	if b.want == nil {
		t.Fatal("no 1-shard reference digest")
	}
	b.untracedOnce()
	if b.rep.failed != 0 {
		t.Fatalf("%d of %d runs failed", b.rep.failed, b.rep.attempted)
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.lock2", "runtime.chanrecv", "runtime.chanrecv1", "mermaid/internal/pearl.(*Process).Hold"}, "sched"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "mermaid/internal/cache.New"}, "gc"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{[]string{"runtime.mapaccess2", "mermaid/internal/cache.(*Cache).Lookup"}, "cache"},
		{[]string{"sort.Search", "mermaid/internal/topology.(*Torus).Route"}, "network"},
		{[]string{"mermaid/internal/annotate.(*Unit).Arith"}, "trace"},
		{[]string{"mermaid/internal/memory.(*DRAM).Read"}, "bus_memory"},
		{[]string{"mermaid/internal/pearl.(*heap[go.shape.*uint8]).push"}, "pearl"},
		{[]string{"runtime.nanotime", "time.Now", "main.(*meteredBatch).NextBatch"}, "other"},
		{[]string{"mermaid/internal/machine.(*Machine).Run"}, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestProfileSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := handoffRound(20_000); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, total, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatal("profile holds no CPU time")
	}
	sum := 0.0
	for _, b := range shareBuckets {
		sum += shares[b]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
	if shares["pearl"] == 0 || shares["sched"] == 0 {
		t.Errorf("a handoff loop charged nothing to pearl or sched: %v", shares)
	}
}

func TestTracedRunWritesChromeTrace(t *testing.T) {
	dir := t.TempDir()
	b := &bench{w: smallWorkloads()[1], seed: 7, rep: &report{samples: map[string][]float64{}, stderr: io.Discard}}
	spanPath, profPath := filepath.Join(dir, "spans.json"), filepath.Join(dir, "cpu.pprof")
	if err := b.measureLayers(0, spanPath, profPath); err != nil {
		t.Fatal(err)
	}
	if b.rep.failed != 0 {
		t.Fatalf("%d of %d runs failed", b.rep.failed, b.rep.attempted)
	}
	data, err := os.ReadFile(spanPath)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	spans := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Errorf("span %s has ts %v dur %v", ev.Name, ev.Ts, ev.Dur)
			}
			spans[ev.Name] = true
		}
	}
	for _, name := range []string{"machine.New", "inputs", "machine.Run", "check", "window",
		"pearl.handoff", "cache.access", "router.hop", "annotate.drain", "stochastic.generate"} {
		if !spans[name] {
			t.Errorf("no %q span in %v", name, spans)
		}
	}
	got := map[string]bool{}
	for _, m := range b.rep.metrics {
		got[m.Name] = true
	}
	for _, name := range perLayerNames() {
		if !got[name] {
			t.Errorf("traced run did not report %s", name)
		}
	}
}

// perLayerNames lists the per-layer metrics BENCHMARK.json declares.
func perLayerNames() []string {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		panic(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		panic(err)
	}
	var names []string
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	return names
}

func TestReportLastLineIsTheResult(t *testing.T) {
	r := &report{workload: "w", attempted: 4, failed: 1, samples: map[string][]float64{}}
	r.add("slowdown_1ghz", 1.5, "ns/cycle")
	var out bytes.Buffer
	printReport(&out, hostStamp(), r)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || string(got["correct"]) != "false" || string(got["attempted"]) != "4" ||
		string(got["failed"]) != "1" || !strings.Contains(string(got["metrics"]), `"unit":"ns/cycle"`) {
		t.Fatalf("result line %s", lines[len(lines)-1])
	}
}

// The task description is what stochastic.Sources gets; keep it valid at
// the benchmark size.
func TestTaskDescValid(t *testing.T) {
	d := taskDesc(taskDim*taskDim, taskIterations, taskDuration, taskBytes, defaultSeed)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Level != stochastic.TaskLevel {
		t.Fatal("task-random description is not task-level")
	}
}

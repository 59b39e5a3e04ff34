package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"mermaid/internal/hostprobe"
	"mermaid/internal/machine"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/trace"
)

// minRuns is the fewest runs a measurement phase makes, however short its
// time budget.
const minRuns = 3

const mib = 1 << 20

// metric is one reported value with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one benchmark invocation.
type report struct {
	workload  string
	seed      uint64
	traced    bool
	attempted int
	failed    int
	digest    digest
	metrics   []metric
	// samples keeps every per-run value behind a median, for the result file.
	samples map[string][]float64
	// stderr receives one line per failed run.
	stderr io.Writer
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(r.stderr, "perfbench: %s: "+format+"\n", append([]any{r.workload}, args...)...)
}

// median returns the median of vs and records them as samples.
func (r *report) median(name string, vs []float64) float64 {
	r.samples[name] = vs
	return median(vs)
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// bench measures one workload at one seed.
type bench struct {
	w    *workload
	seed uint64
	rep  *report
	// want is the digest every run must reproduce: pinned at the default
	// seed, else the first run's.
	want *digest
}

func newBench(w *workload, seed uint64, traced bool, stderr io.Writer) (*bench, error) {
	b := &bench{w: w, seed: seed, rep: &report{
		workload: w.name, seed: seed, traced: traced,
		samples: map[string][]float64{}, stderr: stderr,
	}}
	d, ok, err := pinnedDigest(w.name, seed)
	if err != nil {
		return nil, err
	}
	if ok {
		b.want = &d
	}
	return b, nil
}

// runStats is what one untraced run measured.
type runStats struct {
	newDur, srcDur, wall time.Duration
	alloc, heap          uint64
	slowdown             float64
	events               uint64
	res                  *machine.Result
}

// verify checks one run's result: the model invariants, and the digest
// against the pinned (or first) one. It reports whether the run passed.
func (b *bench) verify(in *instance, res *machine.Result) (counters, bool) {
	c := extract(res)
	if err := checkResult(b.w, in.m, c); err != nil {
		b.rep.fail("check: %v", err)
		return c, false
	}
	d, err := digestOf(res)
	if err != nil {
		b.rep.fail("%v", err)
		return c, false
	}
	if b.want == nil {
		b.want = &d
	} else if d != *b.want {
		b.rep.fail("digest %s, want %s", d, *b.want)
		return c, false
	}
	b.rep.digest = d
	return c, true
}

// runOnce sets up and runs the workload once, untraced, measuring host time
// and heap.
func (b *bench) runOnce() (*runStats, *instance, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, heap0 := ms.TotalAlloc, ms.HeapAlloc
	in, err := b.w.setup(b.seed)
	if err != nil {
		return nil, nil, err
	}
	res, wall, err := in.run()
	if err != nil {
		return nil, nil, fmt.Errorf("run: %w", err)
	}
	runtime.ReadMemStats(&ms)
	st := &runStats{newDur: in.newDur, srcDur: in.srcDur, wall: wall,
		alloc: ms.TotalAlloc - alloc0, slowdown: slowdown(wall, res), events: res.Events, res: res}
	// Live heap with the finished machine still referenced.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > heap0 {
		st.heap = ms.HeapAlloc - heap0
	}
	runtime.KeepAlive(in)
	return st, in, nil
}

// checkShards runs a sharded workload once on a single shard and pins its
// digest as the one every sharded run must reproduce: results are
// byte-identical at any shard count. Untimed.
func (b *bench) checkShards() {
	cfg := b.w.config(b.seed)
	if cfg.Shards < 2 {
		return
	}
	one := *b.w
	one.config = func(seed uint64) machine.Config {
		c := b.w.config(seed)
		c.Shards = 1
		return c
	}
	b.rep.attempted++
	in, err := one.setup(b.seed)
	if err != nil {
		b.rep.fail("1-shard reference: %v", err)
		return
	}
	res, _, err := in.run()
	if err != nil {
		b.rep.fail("1-shard reference: %v", err)
		return
	}
	b.verify(in, res)
}

// untracedOnce makes one untraced run and checks it. It returns nil when
// the run failed.
func (b *bench) untracedOnce() *runStats {
	b.rep.attempted++
	st, in, err := b.runOnce()
	if err != nil {
		b.rep.fail("%v", err)
		return nil
	}
	if _, ok := b.verify(in, st.res); !ok {
		return nil
	}
	st.res = nil
	return st
}

// slowdown is host nanoseconds per simulated processor-cycle: the paper's
// §6 slowdown per processor on a 1 GHz-equivalent host.
func slowdown(wall time.Duration, res *machine.Result) float64 {
	return float64(wall.Nanoseconds()) / (float64(res.Cycles) * float64(res.Processors))
}

// measureEndToEnd is the untraced benchmark: the end-to-end metrics.
func (b *bench) measureEndToEnd(budget time.Duration) error {
	b.checkShards()
	var runs []*runStats
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < budget; i++ {
		if st := b.untracedOnce(); st != nil {
			runs = append(runs, st)
		}
	}
	if len(runs) == 0 {
		return fmt.Errorf("%s: no run passed its checks", b.w.name)
	}
	var slow, setup, alloc, heap []float64
	for _, st := range runs {
		slow = append(slow, st.slowdown)
		setup = append(setup, (st.newDur + st.srcDur).Seconds())
		alloc = append(alloc, float64(st.alloc)/mib)
		heap = append(heap, float64(st.heap)/mib)
	}
	r := b.rep
	r.add("slowdown_1ghz", r.median("slowdown_1ghz", slow), "ns/cycle")
	r.add("setup_s", r.median("setup_s", setup), "s")
	r.add("alloc_mib", r.median("alloc_mib", alloc), "MiB")
	r.add("model_heap_mib", r.median("model_heap_mib", heap), "MiB")
	return nil
}

// sourceMeter counts the events one trace source delivered and the host
// time spent inside its Next and NextBatch calls.
type sourceMeter struct {
	ops uint64
	ns  int64
}

type meteredSource struct {
	src trace.Source
	m   *sourceMeter
}

func (s *meteredSource) Next() (trace.Event, error) {
	t0 := time.Now()
	ev, err := s.src.Next()
	s.m.ns += int64(time.Since(t0))
	if err == nil {
		s.m.ops++
	}
	return ev, err
}

// meteredBatch keeps the batch path of a trace.BatchSource.
type meteredBatch struct {
	meteredSource
	batch trace.BatchSource
}

func (s *meteredBatch) NextBatch() ([]trace.Event, error) {
	t0 := time.Now()
	evs, err := s.batch.NextBatch()
	s.m.ns += int64(time.Since(t0))
	s.m.ops += uint64(len(evs))
	return evs, err
}

// meter wraps src, appending its meter to meters. Each source is pulled by
// one simulation process at a time, so a meter needs no locking; they are
// summed after the run returns.
func meter(src trace.Source, meters *[]*sourceMeter) trace.Source {
	m := &sourceMeter{}
	*meters = append(*meters, m)
	if bs, ok := src.(trace.BatchSource); ok {
		return &meteredBatch{meteredSource{src, m}, bs}
	}
	return &meteredSource{src, m}
}

// tracedRun is one run with the benchmark's probes attached: metered
// sources, a CPU profile around Run, shard telemetry, and spans.
type tracedRun struct {
	slowdown  float64
	c         counters
	traceOps  uint64
	traceNs   int64
	profile   []byte
	telemetry *pearl.ShardTelemetry
}

// spans is the traced run's span file: the benchmark's calls into each
// layer, nested by time on one track.
type spans struct {
	t            *hostprobe.Trace
	main, layers probe.Track
}

func newSpans() *spans {
	t := hostprobe.NewTrace()
	return &spans{t: t, main: t.Track("bench.main"), layers: t.Track("bench.layers")}
}

// traceOnce sets up and runs the workload with the probes attached.
// windows, when set, records the parallel engine's barrier windows too.
func (b *bench) traceOnce(sp *spans, windows bool) (*tracedRun, error) {
	runtime.GC() // as in runOnce, so that traced and untraced runs start alike
	t0 := time.Now()
	in, err := b.w.setup(b.seed)
	if err != nil {
		return nil, err
	}
	sp.t.Span(sp.main, "machine.New", t0, t0.Add(in.newDur))
	sp.t.Span(sp.main, "inputs", t0.Add(in.newDur), t0.Add(in.setupDur()))
	tr := &tracedRun{}
	if g := in.m.ShardGroup(); g != nil {
		tr.telemetry = g.EnableTelemetry()
		if windows {
			hostprobe.ShardSpans(sp.t, g)
		}
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var meters []*sourceMeter
	t1 := time.Now()
	res, wall, err := in.runMetered(&meters)
	sp.t.SpanSince(sp.main, "machine.Run", t1)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	tr.slowdown, tr.profile = slowdown(wall, res), prof.Bytes()
	for _, m := range meters {
		tr.traceOps += m.ops
		tr.traceNs += m.ns
	}
	t2 := time.Now()
	c, ok := b.verify(in, res)
	sp.t.SpanSince(sp.main, "check", t2)
	sp.t.SpanSince(sp.main, "iteration", t0)
	if !ok {
		return nil, nil
	}
	tr.c = c
	return tr, nil
}

// layerCall times one layer call and records it as a span.
func (b *bench) layerCall(sp *spans, name string, repeats int, op func() (int, error)) float64 {
	t0 := time.Now()
	ns, err := medianNs(repeats, op)
	sp.t.SpanSince(sp.layers, name, t0)
	if err != nil {
		b.rep.fail("layer call %s: %v", name, err)
		return 0
	}
	return ns
}

// measureLayers is the traced benchmark: the per-layer metrics. For two
// thirds of the budget it alternates untraced runs (the reference for
// trace_overhead and the per-event cost) with traced runs, so that both see
// the same host; then it makes the layer calls. The span file is written to
// spanPath, the last traced run's CPU profile to profPath.
func (b *bench) measureLayers(budget time.Duration, spanPath, profPath string) error {
	b.checkShards()
	sp := newSpans()
	var plain []*runStats
	var traced []*tracedRun
	start := time.Now()
	for i := 0; i < 2*minRuns || time.Since(start) < budget*2/3; i++ {
		if i%2 == 0 {
			t0 := time.Now()
			if st := b.untracedOnce(); st != nil {
				plain = append(plain, st)
			}
			sp.t.SpanSince(sp.main, "untraced iteration", t0)
			continue
		}
		b.rep.attempted++
		tr, err := b.traceOnce(sp, i == 1)
		if err != nil {
			b.rep.fail("%v", err)
		} else if tr != nil {
			traced = append(traced, tr)
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("%s: %d untraced and %d traced runs passed their checks", b.w.name, len(plain), len(traced))
	}
	r := b.rep
	last := traced[len(traced)-1]
	c := last.c

	var plainSlow, perEvent, newS, srcS []float64
	for _, st := range plain {
		plainSlow = append(plainSlow, st.slowdown)
		perEvent = append(perEvent, float64(st.wall.Nanoseconds())/float64(st.events))
		newS = append(newS, st.newDur.Seconds())
		srcS = append(srcS, st.srcDur.Seconds())
	}
	var tracedSlow, traceNs []float64
	var profiles [][]byte
	for _, tr := range traced {
		tracedSlow = append(tracedSlow, tr.slowdown)
		if tr.traceOps > 0 {
			traceNs = append(traceNs, float64(tr.traceNs)/float64(tr.traceOps))
		}
		profiles = append(profiles, tr.profile)
	}

	r.add("pearl.events", float64(c.events), "count")
	r.add("pearl.ns_per_event", r.median("pearl.ns_per_event", perEvent), "ns")
	r.add("pearl.handoff_ns", b.layerCall(sp, "pearl.handoff", layerRepeats,
		func() (int, error) { return handoffRound(handoffOps) }), "ns")
	r.add("pearl.event_ns", b.layerCall(sp, "pearl.event", layerRepeats,
		func() (int, error) { return eventRound(eventOps) }), "ns")
	var windows, perWindow, waitFrac float64
	if tel := last.telemetry; tel != nil && tel.Windows > 0 {
		var busy, wait time.Duration
		for _, ld := range tel.Shards {
			busy += ld.Busy
			wait += ld.Wait
		}
		windows, perWindow = float64(tel.Windows), tel.WindowEvents.Mean()
		if busy+wait > 0 {
			waitFrac = float64(wait) / float64(busy+wait)
		}
	}
	r.add("pearl.windows", windows, "count")
	r.add("pearl.events_per_window", perWindow, "count")
	r.add("pearl.barrier_wait_frac", waitFrac, "frac")

	r.add("trace.ops", float64(last.traceOps), "count")
	r.add("trace.ns_per_op", r.median("trace.ns_per_op", traceNs), "ns")
	r.add("trace.sources_s", r.median("trace.sources_s", srcS), "s")
	r.add("annotate.ns_per_op", b.layerCall(sp, "annotate.drain", layerRepeats,
		func() (int, error) { return annotateDrain(annotateCells, annotateIters) }), "ns")
	r.add("stochastic.ns_per_op", b.layerCall(sp, "stochastic.generate", layerRepeats,
		func() (int, error) { return stochasticGenerate(b.seed) }), "ns")

	r.add("cpu.instructions", float64(c.instructions), "count")
	r.add("cache.accesses", float64(c.cacheAccesses()), "count")
	r.add("cache.miss_ratio", c.missRatio(), "frac")
	r.add("cache.access_ns", b.layerCall(sp, "cache.access", layerRepeats,
		func() (int, error) { return cacheReplay(cacheOps, b.seed) }), "ns")
	r.add("cache.coherence_txns", float64(c.coherence), "count")
	r.add("bus.transactions", float64(c.busTxns), "count")

	r.add("network.messages", float64(c.messages), "count")
	r.add("network.hops", c.hops(), "count")
	r.add("router.hop_ns", b.layerCall(sp, "router.hop", layerRepeats,
		func() (int, error) { return routeWalk(routePairs, b.seed) }), "ns")
	r.add("machine.new_s", r.median("machine.new_s", newS), "s")

	shares, _, err := profileShares(profiles...)
	if err != nil {
		return err
	}
	for _, bucket := range shareBuckets {
		r.add("host_share."+bucket, shares[bucket], "frac")
	}
	r.add("trace_overhead", r.median("traced_slowdown", tracedSlow)/r.median("slowdown_1ghz", plainSlow), "ratio")

	if err := writeFile(profPath, last.profile); err != nil {
		return err
	}
	var js bytes.Buffer
	if err := sp.t.WriteJSON(&js); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return writeFile(spanPath, js.Bytes())
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

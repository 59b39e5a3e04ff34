// Command mermaid is the workbench driver: it builds a machine model (from a
// preset or a JSON configuration), attaches a workload (an instrumented
// application, a stochastic description, or pre-generated trace files), runs
// the simulation and reports the results. It also regenerates every
// experiment of the paper reproduction (see EXPERIMENTS.md).
//
// Usage examples:
//
//	mermaid -preset t805-4x4 -app jacobi -iters 20
//	mermaid -config mymachine.json -desc workload.json
//	mermaid -preset ppc601 -traces node0.mmt
//	mermaid -experiment all
//	mermaid -experiment cache-sweep -sweep "sizes=4,16;assocs=2"
//	mermaid pipeline run -grid grid.json
//	mermaid pipeline diff runs/A runs/B
//	mermaid -preset hybrid-2x2x2 -dump-config
//	mermaid -topology fattree:32x3 -desc sweep.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"mermaid/internal/analysis"
	"mermaid/internal/core"
	"mermaid/internal/experiments"
	"mermaid/internal/farm"
	"mermaid/internal/fault"
	"mermaid/internal/hostprobe"
	"mermaid/internal/machine"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/trace"
	"mermaid/internal/workload"
)

var presets = map[string]func() machine.Config{
	"t805-2x1":      func() machine.Config { return machine.T805Grid(2, 1) },
	"t805-2x2":      func() machine.Config { return machine.T805Grid(2, 2) },
	"t805-4x4":      func() machine.Config { return machine.T805Grid(4, 4) },
	"t805-8x8":      func() machine.Config { return machine.T805Grid(8, 8) },
	"t805-task-4x4": func() machine.Config { return machine.T805GridTaskLevel(4, 4) },
	"ppc601":        machine.PPC601Machine,
	"ppc601-smp4":   func() machine.Config { return machine.PPC601SMP(4) },
	"ppc601-smp8":   func() machine.Config { return machine.PPC601SMP(8) },
	"hybrid-2x2x2":  func() machine.Config { return machine.HybridCluster(2, 2, 2) },
	"dsm-2x2":       func() machine.Config { return machine.DSMCluster(2, 2) },
}

func presetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	// Subcommand dispatch: `mermaid pipeline <run|diff|validate> ...` has its
	// own flag sets and bypasses the single-run flags below.
	if len(os.Args) > 1 && os.Args[1] == "pipeline" {
		if err := pipelineMain(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	var (
		preset     = flag.String("preset", "", "machine preset: "+strings.Join(presetNames(), ", "))
		configPath = flag.String("config", "", "machine configuration JSON file")
		topoSpec   = flag.String("topology", "", "build a task-level machine on this topology, e.g. torus:8x8, torus3d:16x16x16, fattree:32x3, dragonfly:8x4x33 (instead of -preset/-config)")
		dumpConfig = flag.Bool("dump-config", false, "print the machine configuration as JSON and exit")

		faultsPath = flag.String("faults", "", "fault schedule JSON file (link/node down windows, packet noise, retransmission parameters)")

		app      = flag.String("app", "", "instrumented application: pingpong, jacobi, jacobi-dsm, matmul, allreduce, transpose, butterfly, shared")
		rounds   = flag.Int("rounds", 10, "pingpong rounds")
		iters    = flag.Int("iters", 10, "application iterations/sweeps")
		bytesF   = flag.Int("bytes", 1024, "message/block size in bytes")
		cells    = flag.Int("cells", 256, "jacobi grid cells")
		dim      = flag.Int("dim", 16, "matmul matrix dimension")
		descPath = flag.String("desc", "", "stochastic workload description JSON file")
		traces   = flag.String("traces", "", "comma-separated binary trace files, one per processor")

		experiment = flag.String("experiment", "", "run a reproduction experiment: all, list, "+strings.Join(experiments.Names(), ", "))
		sweepF     = flag.String("sweep", "", "experiment sweep overrides, ';'-separated name=value pairs (values may contain commas), e.g. \"sizes=4,16;assocs=2\"")
		csv        = flag.Bool("csv", false, "emit experiment tables as CSV")
		monitor    = flag.Int64("monitor", 0, "sample run-time metrics every N cycles and print a run-time monitor section (0 = off); also the sampling interval of -metrics and -monitor-addr, which default to 10000")

		reportPath  = flag.String("report", "", "run the bottleneck analysis and write its JSON report to this file")
		monitorAddr = flag.String("monitor-addr", "", "serve live run state over HTTP on this address (/metrics Prometheus text, /progress JSON)")

		timeline       = flag.String("timeline", "", "write a virtual-time timeline (Chrome trace-event JSON, Perfetto-loadable) to this file")
		timelineSample = flag.Int("timeline-sample", 1, "keep every Nth timeline event (sampling rate)")
		metricsOut     = flag.String("metrics", "", "write periodic metric-registry samples (every -monitor cycles) to this CSV file")

		parallel = flag.Int("parallel", runtime.NumCPU(), "max simulations to run concurrently (experiment sweeps and -repeats)")
		repeats  = flag.Int("repeats", 1, "replications of the run with per-replica derived seeds")
		shards   = flag.Int("shards", 0, "run one simulation on N parallel shards (conservative parallel engine; 0 = single kernel). Results are byte-identical at any shard count")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		hostTrace   = flag.String("host-trace", "", "write a wall-clock host trace (Chrome trace-event JSON: shard windows with -shards, farm workers with -repeats) to this file. Host telemetry never changes simulated results")
		hostMetrics = flag.String("host-metrics", "", "write the parallel engine's telemetry (busy/wait per shard, windows, efficiency) as Prometheus text to this file (requires -shards)")
	)
	flag.Parse()
	if *monitor < 0 {
		fatal(fmt.Errorf("-monitor: sampling interval %d is negative", *monitor))
	}

	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	profileStop = stop
	defer stop()

	if *experiment != "" {
		sweep, err := parseSweep(*sweepF)
		if err != nil {
			fatal(err)
		}
		if err := runExperiments(os.Stdout, *experiment, *csv, *parallel, sweep); err != nil {
			fatal(err)
		}
		return
	}
	if *sweepF != "" {
		fatal(fmt.Errorf("-sweep only applies to -experiment runs"))
	}

	cfg, err := resolveConfig(*preset, *configPath, *topoSpec)
	if err != nil {
		fatal(err)
	}
	if *faultsPath != "" {
		data, err := os.ReadFile(*faultsPath)
		if err != nil {
			fatal(err)
		}
		sched, err := fault.ParseSchedule(data)
		if err != nil {
			fatal(err)
		}
		cfg.Faults = sched
	}
	if *shards > 0 {
		cfg.Shards = *shards
	}
	if cfg.Shards > 0 {
		// The parallel engine owns one kernel per shard; the single-kernel
		// observers that poll or schedule on "the" kernel don't compose with
		// it (and would break shard-count invariance).
		switch {
		case *monitor > 0:
			fatal(fmt.Errorf("-monitor is not supported with -shards"))
		case *metricsOut != "":
			fatal(fmt.Errorf("-metrics is not supported with -shards"))
		case *reportPath != "":
			fatal(fmt.Errorf("-report is not supported with -shards"))
		case *monitorAddr != "":
			fatal(fmt.Errorf("-monitor-addr is not supported with -shards"))
		case *timelineSample > 1:
			fatal(fmt.Errorf("-timeline-sample is not supported with -shards (sampling rates on a partition-dependent counter)"))
		}
	}
	if *hostMetrics != "" && cfg.Shards == 0 {
		fatal(fmt.Errorf("-host-metrics reports the parallel engine; add -shards N"))
	}
	if *dumpConfig {
		if cfg.Version == 0 {
			cfg.Version = machine.ConfigVersion
		}
		data, err := json.MarshalIndent(cfg, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}

	if *app == "" && *descPath == "" && *traces == "" {
		flag.Usage()
		os.Exit(2)
	}
	runName := *app
	if runName == "" {
		if *descPath != "" {
			runName = *descPath
		} else {
			runName = *traces
		}
	}
	runOnce := func(m *machine.Machine) (*machine.Result, error) {
		switch {
		case *app != "":
			return runApp(m, *app, appParams{
				rounds: *rounds, iters: *iters, bytes: uint32(*bytesF), cells: *cells, dim: *dim,
			})
		case *descPath != "":
			return runDesc(m, *descPath)
		default:
			return runTraceFiles(m, strings.Split(*traces, ","))
		}
	}

	if *repeats > 1 {
		if *monitor > 0 {
			fatal(fmt.Errorf("-monitor samples a single machine; use -repeats 1"))
		}
		if *timeline != "" || *metricsOut != "" || *reportPath != "" {
			fatal(fmt.Errorf("-timeline, -metrics and -report observe a single machine; use -repeats 1"))
		}
		if *hostMetrics != "" {
			fatal(fmt.Errorf("-host-metrics reports one parallel run; use -repeats 1"))
		}
		var scope *analysis.Scope
		if *monitorAddr != "" {
			scope = analysis.NewScope()
			mon, err := analysis.NewMonitor(*monitorAddr, scope)
			if err != nil {
				fatal(err)
			}
			defer mon.Close()
			fmt.Fprintf(os.Stderr, "mermaid: monitoring on http://%s (/metrics, /progress)\n", mon.Addr())
		}
		var host *hostprobe.Trace
		if *hostTrace != "" {
			host = hostprobe.NewTrace()
		}
		if err := runReplicated(os.Stdout, cfg, runName, *repeats, *parallel, scope, host, runOnce); err != nil {
			fatal(err)
		}
		writeHostTrace(host, *hostTrace)
		return
	}

	var pb *probe.Probe
	var opts []core.Option
	if *timeline != "" || *metricsOut != "" {
		pb = probe.New(probe.Config{Timeline: *timeline != "", SampleEvery: *timelineSample})
		opts = append(opts, core.WithProbe(pb))
	}
	if *reportPath != "" {
		opts = append(opts, core.WithAnalysis())
	}
	wb, err := core.New(cfg, opts...)
	if err != nil {
		fatal(err)
	}
	m, err := wb.Build()
	if err != nil {
		fatal(err)
	}
	// Host-side observability: wall-clock only, attached outside the
	// simulation. Enabling it never changes reports or virtual-time
	// timelines (pinned by the shard-invariance tests).
	var host *hostprobe.Trace
	if *hostTrace != "" {
		host = hostprobe.NewTrace()
	}
	var shardTel *pearl.ShardTelemetry
	if g := m.ShardGroup(); g != nil {
		shardTel = g.EnableTelemetry()
		hostprobe.ShardSpans(host, g)
	}
	// Every virtual-time reader runs on the kernel's one sampling hook,
	// which is not an event: sampled runs report the same cycles and
	// events as unsampled ones.
	var samplers []func(pearl.Time)
	var series *machine.RunSeries
	if *monitor > 0 {
		series = machine.NewRunSeries(m)
		samplers = append(samplers, series.Sample)
	}
	if *metricsOut != "" {
		samplers = append(samplers, pb.Registry().Sample)
	}
	var scope *analysis.Scope
	if *monitorAddr != "" {
		scope = analysis.NewScope()
		mon, err := analysis.NewMonitor(*monitorAddr, scope)
		if err != nil {
			fatal(err)
		}
		defer mon.Close()
		scope.SetRuns(1)
		k, reg := m.Kernel(), pb.Registry()
		samplers = append(samplers, func(pearl.Time) { scope.Sample(k, reg) })
		fmt.Fprintf(os.Stderr, "mermaid: monitoring on http://%s (/metrics, /progress)\n", mon.Addr())
	}
	if len(samplers) > 0 {
		every := pearl.Time(*monitor)
		if every == 0 {
			every = 10000
		}
		if err := m.Kernel().Sample(every, func(at pearl.Time) {
			for _, sample := range samplers {
				sample(at)
			}
		}); err != nil {
			fatal(err)
		}
	}

	res, err := runOnce(m)
	if err != nil {
		fatal(err)
	}
	scope.RunDone()
	scope.Finish()
	if *reportPath != "" {
		if res.Analysis == nil {
			fatal(fmt.Errorf("-report: run produced no analysis"))
		}
		if err := writeFileWith(*reportPath, res.Analysis.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mermaid: wrote %s\n", *reportPath)
	}
	if *timeline != "" {
		// MergedTimeline is the single probe timeline on the one-kernel
		// engine and the canonical cross-shard merge under -shards.
		tl := m.MergedTimeline()
		if err := writeFileWith(*timeline, tl.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mermaid: wrote %s (%d timeline events)\n", *timeline, tl.Events())
	}
	if *metricsOut != "" {
		if err := writeFileWith(*metricsOut, pb.Registry().WriteCSV); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mermaid: wrote %s\n", *metricsOut)
	}
	if err := wb.Report(os.Stdout, res); err != nil {
		fatal(err)
	}
	if shardTel != nil {
		// Host-side wall-clock profile of the parallel engine: stderr, so the
		// deterministic report on stdout stays byte-identical run to run.
		fmt.Fprintln(os.Stderr)
		if err := hostprobe.WriteShardReport(os.Stderr, shardTel); err != nil {
			fatal(err)
		}
	}
	writeHostTrace(host, *hostTrace)
	if *hostMetrics != "" {
		reg := new(probe.Registry)
		hostprobe.RegisterShardStats(reg, shardTel)
		if err := writeFileWith(*hostMetrics, func(w io.Writer) error {
			return analysis.WriteRegistryMetrics(w, reg)
		}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mermaid: wrote %s\n", *hostMetrics)
	}
	if series != nil {
		fmt.Println("\nrun-time monitor:")
		if err := series.Render(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

type appParams struct {
	rounds, iters, cells, dim int
	bytes                     uint32
}

func runApp(m *machine.Machine, name string, p appParams) (*machine.Result, error) {
	n := m.Streams()
	switch name {
	case "pingpong":
		if n != 2 {
			return nil, fmt.Errorf("pingpong needs a 2-processor machine, have %d", n)
		}
		return m.RunProgram(workload.PingPong(p.rounds, p.bytes))
	case "jacobi":
		return m.RunProgram(workload.Jacobi1D(n, p.cells, p.iters))
	case "jacobi-dsm":
		if m.DSM() == nil {
			return nil, fmt.Errorf("jacobi-dsm needs a machine with virtual shared memory (DSM config)")
		}
		return m.RunProgram(workload.JacobiDSM(n, p.cells, p.iters))
	case "matmul":
		var out [][]float64
		return m.RunProgram(workload.MatMul(n, p.dim, &out))
	case "allreduce":
		results := make([]float64, n)
		return m.RunProgram(workload.RingAllreduce(n, 16, results))
	case "transpose":
		return m.RunProgram(workload.Transpose(n, p.bytes))
	case "butterfly":
		return m.RunProgram(workload.Butterfly(n, p.bytes, p.iters))
	case "shared":
		return m.RunProgram(workload.SharedCounter(n, p.iters*10))
	}
	return nil, fmt.Errorf("unknown application %q", name)
}

func runDesc(m *machine.Machine, path string) (*machine.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d stochastic.Desc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return m.RunStochastic(d)
}

func runTraceFiles(m *machine.Machine, paths []string) (*machine.Result, error) {
	srcs := make([]trace.Source, len(paths))
	files := make([]*os.File, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		files[i] = f
		srcs[i] = trace.FromReader(f)
	}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	return m.Run(srcs)
}

func resolveConfig(preset, configPath, topoSpec string) (machine.Config, error) {
	given := 0
	for _, s := range []string{preset, configPath, topoSpec} {
		if s != "" {
			given++
		}
	}
	switch {
	case given > 1:
		return machine.Config{}, fmt.Errorf("use exactly one of -preset, -config or -topology")
	case preset != "":
		mk, ok := presets[preset]
		if !ok {
			return machine.Config{}, fmt.Errorf("unknown preset %q (have: %s)", preset, strings.Join(presetNames(), ", "))
		}
		return mk(), nil
	case configPath != "":
		data, err := os.ReadFile(configPath)
		if err != nil {
			return machine.Config{}, err
		}
		return machine.ParseConfig(data)
	case topoSpec != "":
		return machine.TaskMachineFromSpec(topoSpec)
	default:
		return machine.Config{}, fmt.Errorf("a machine is required: -preset, -config or -topology")
	}
}

// parseSweep parses ';'-separated name=value pairs (';' because sweep values
// are comma-separated lists themselves).
func parseSweep(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	sweep := map[string]string{}
	for _, pair := range strings.Split(s, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, value, ok := strings.Cut(pair, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-sweep: %q is not a name=value pair", pair)
		}
		sweep[strings.TrimSpace(name)] = strings.TrimSpace(value)
	}
	return sweep, nil
}

func runExperiments(w io.Writer, which string, csv bool, workers int, sweep map[string]string) error {
	if which == "list" {
		return experiments.Describe().Render(w)
	}
	exps := experiments.All()
	if which != "all" {
		e, ok := experiments.ByName(which)
		if !ok {
			return fmt.Errorf("unknown experiment %q (have: all, list, %s)", which, strings.Join(experiments.Names(), ", "))
		}
		exps = []experiments.Experiment{e}
	} else if len(sweep) > 0 {
		return fmt.Errorf("-sweep overrides one experiment's parameters; use it with a single -experiment, not all")
	}
	return runExperimentSet(w, exps, csv, workers, sweep)
}

// runExperimentSet runs every experiment — a failure does not stop the rest —
// printing each rendered table in canonical order and returning all failures
// joined. Sweep points within an experiment are farmed across workers.
func runExperimentSet(w io.Writer, exps []experiments.Experiment, csv bool, workers int, sweep map[string]string) error {
	jobs := make([]farm.Job, len(exps))
	for i, e := range exps {
		e := e
		jobs[i] = farm.Job{Name: e.Name, Run: func(*farm.RunContext) (any, error) {
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "== experiment %s ==\n", e.Name)
			rs, err := e.Execute(experiments.Spec{Workers: workers, Sweep: sweep})
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", e.Name, err)
			}
			if csv {
				if err := rs.Table.RenderCSV(&buf); err != nil {
					return nil, err
				}
			} else if err := rs.Table.Render(&buf); err != nil {
				return nil, err
			}
			fmt.Fprintln(&buf)
			return buf.String(), nil
		}}
	}
	// Experiments farm their own sweep points; running them one at a time
	// here keeps the worker budget from compounding.
	rep := farm.New(1).Run(jobs)
	for _, r := range rep.Results {
		if r.Err == nil {
			fmt.Fprint(w, r.Value.(string))
		}
	}
	return rep.Errs()
}

// runReplicated executes the configured run `repeats` times with per-replica
// derived seeds, farming the replicas across `workers` host goroutines, and
// reports one row per replica plus batch aggregates — including the message
// latency distribution merged across every replica. A non-nil scope is fed
// run completions for its /progress endpoint.
func runReplicated(w io.Writer, cfg machine.Config, name string, repeats, workers int, scope *analysis.Scope, host *hostprobe.Trace, runOnce func(*machine.Machine) (*machine.Result, error)) error {
	pool := farm.New(workers)
	pool.Repeats = repeats
	pool.Seed = cfg.Seed
	pool.Host = host
	scope.SetRuns(repeats)
	pool.OnResult = func(res farm.Result) {
		scope.ObserveRun(res.Cycles, res.Events)
		scope.RunDone()
	}
	job := farm.Job{Name: name, Run: func(rc *farm.RunContext) (any, error) {
		c := cfg
		c.Seed = rc.Seed
		wb, err := core.New(c)
		if err != nil {
			return nil, err
		}
		m, err := wb.Build()
		if err != nil {
			return nil, err
		}
		res, err := runOnce(m)
		if err != nil {
			return nil, err
		}
		rc.ObserveSim(res.Cycles, res.Events)
		if net := m.Network(); net != nil {
			h := *net.MessageLatency() // copy: the machine dies with the run
			return &h, nil
		}
		return nil, nil
	}}
	rep := pool.Run([]farm.Job{job})
	scope.Finish()
	fmt.Fprintf(w, "%d replications of %s (%s), seeds derived from %d:\n", repeats, name, cfg.Name, cfg.Seed)
	if err := rep.Table().Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := stats.RenderSet(w, rep.Summary()); err != nil {
		return err
	}
	// Aggregate latency across replicas instead of dropping all but the first:
	// bucket-wise histogram merging keeps min/max/mean exact over the batch.
	var agg stats.Histogram
	for _, v := range rep.Values() {
		if h, ok := v.(*stats.Histogram); ok {
			if err := agg.Merge(h); err != nil {
				return fmt.Errorf("aggregating replica latency: %w", err)
			}
		}
	}
	if agg.Count() > 0 {
		fmt.Fprintf(w, "message latency over all replicas: mean %.1f cyc, min %d, max %d (%d messages)\n",
			agg.Mean(), agg.Min(), agg.Max(), agg.Count())
	}
	return rep.Errs()
}

// profileStop flushes any active profiles. fatal calls it explicitly because
// os.Exit skips deferred calls; startProfiles makes it safe to run twice.
var profileStop = func() {}

// startProfiles starts CPU profiling and/or arranges a heap profile dump,
// returning an idempotent stop function that flushes both.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		cpuFile = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mermaid:", err)
				return
			}
			runtime.GC() // collect garbage so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mermaid:", err)
			}
			f.Close()
		}
	}, nil
}

// writeHostTrace exports the wall-clock host trace, if one was recorded.
func writeHostTrace(host *hostprobe.Trace, path string) {
	if host == nil || path == "" {
		return
	}
	if err := writeFileWith(path, host.WriteJSON); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mermaid: wrote %s (%d host trace events)\n", path, host.Events())
}

// writeFileWith creates path and streams render into it, propagating both
// render and close errors.
func writeFileWith(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mermaid:", err)
	profileStop()
	os.Exit(1)
}

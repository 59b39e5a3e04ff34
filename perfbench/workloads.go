package main

import (
	"fmt"
	"time"

	"mermaid/internal/machine"
	"mermaid/internal/pearl"
	"mermaid/internal/stochastic"
	"mermaid/internal/trace"
	apps "mermaid/internal/workload"
)

// layer names a model layer whose counters a workload must expose in its
// Result.Stats; a workload that uses a layer but yields none of its
// counters fails its check instead of reporting zeros.
type layer uint8

const (
	layerCPU layer = 1 << iota
	layerCache
	layerBus
	layerNetwork
	layerTask // task-level abstract processors
)

// A workload is one named benchmark input: a machine configuration and the
// trace sources or program that drive it. The seed derives the machine's
// seed and the trace sources; the programs do not depend on it.
type workload struct {
	name string
	// config returns the machine configuration for a seed.
	config func(seed uint64) machine.Config
	// program, when set, builds the execution-driven program run through
	// machine.RunProgram; otherwise sources builds trace sources for
	// machine.Run.
	program func() *trace.Program
	sources func(seed uint64) ([]trace.Source, error)
	// layers lists the layers whose counters must appear in the result.
	layers layer
}

// Seed streams: the workload seed is never handed to the model directly;
// each consumer gets its own derived stream.
const (
	streamMachine = 1
	streamTraffic = 2
	streamCache   = 3
	streamRoute   = 4
)

// derive maps the workload seed to the seed of one input stream.
func derive(seed, stream uint64) uint64 {
	return pearl.NewRNG(seed).Derive(stream).Uint64()
}

// Benchmark sizes. Each is chosen so that one run of the workload takes
// roughly half a second on a 2 GHz-class host core, giving a dozen or more
// samples per measured run.
const (
	jacobiCells = 4096
	jacobiIters = 2

	taskDim        = 64
	taskIterations = 4
	taskDuration   = 20000
	taskBytes      = 512

	smpCPUs       = 8
	smpIncrements = 2500
)

// workloads returns the benchmark's workloads at their benchmark sizes.
func workloads() []*workload {
	return []*workload{
		jacobiWorkload("detailed-jacobi", 8, 8, 0, jacobiCells, jacobiIters),
		jacobiWorkload("sharded-jacobi", 8, 8, 2, jacobiCells, jacobiIters),
		taskRandomWorkload("task-random", taskDim, taskIterations, taskDuration, taskBytes),
		smpWorkload("smp-coherence", smpCPUs, smpIncrements),
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// jacobiWorkload is the annotated 1-D Jacobi solver on a w x h T805 grid in
// detailed mode, on the parallel engine when shards > 0.
func jacobiWorkload(name string, w, h, shards, cells, iters int) *workload {
	return &workload{
		name: name,
		config: func(seed uint64) machine.Config {
			cfg := machine.T805Grid(w, h)
			cfg.Seed = derive(seed, streamMachine)
			cfg.Shards = shards
			return cfg
		},
		program: func() *trace.Program { return apps.Jacobi1D(w*h, cells, iters) },
		layers:  layerCPU | layerCache | layerBus | layerNetwork,
	}
}

// taskDesc is the stochastic random-permutation description of task-random:
// every iteration computes for a jittered duration, then exchanges messages
// along a fresh random permutation.
func taskDesc(nodes, iters int, duration int64, bytes uint32, seed uint64) stochastic.Desc {
	return stochastic.Desc{
		Name: "task-random", Nodes: nodes, Level: stochastic.TaskLevel,
		Seed: derive(seed, streamTraffic), Iterations: iters,
		Phases: []stochastic.Phase{{
			Duration: duration, CV: 0.2,
			Comm: stochastic.Comm{Pattern: stochastic.RandomPairs, Bytes: bytes},
		}},
	}
}

// taskRandomWorkload is a task-level dim x dim torus driven by stochastic
// random-permutation traffic.
func taskRandomWorkload(name string, dim, iters int, duration int64, bytes uint32) *workload {
	spec := fmt.Sprintf("torus:%dx%d", dim, dim)
	return &workload{
		name: name,
		config: func(seed uint64) machine.Config {
			cfg, err := machine.TaskMachineFromSpec(spec)
			if err != nil {
				panic(err) // the spec is a constant of this file
			}
			cfg.Seed = derive(seed, streamMachine)
			return cfg
		},
		sources: func(seed uint64) ([]trace.Source, error) {
			return stochastic.Sources(taskDesc(dim*dim, iters, duration, bytes, seed))
		},
		layers: layerNetwork | layerTask,
	}
}

// smpWorkload is a snoopy PPC601 SMP node where every CPU increments one
// shared and one private counter.
func smpWorkload(name string, cpus, increments int) *workload {
	return &workload{
		name: name,
		config: func(seed uint64) machine.Config {
			cfg := machine.PPC601SMP(cpus)
			cfg.Seed = derive(seed, streamMachine)
			return cfg
		},
		program: func() *trace.Program { return apps.SharedCounter(cpus, increments) },
		layers:  layerCPU | layerCache | layerBus,
	}
}

// instance is one workload set up and ready to run: everything from
// configuration to the first event is done.
type instance struct {
	m    *machine.Machine
	prog *trace.Program
	srcs []trace.Source
	// newDur is the machine.New time, srcDur the time to build the
	// program or trace sources (stochastic generation included).
	newDur, srcDur time.Duration
}

// setup builds the machine and its inputs for one run.
func (w *workload) setup(seed uint64) (*instance, error) {
	t0 := time.Now()
	m, err := machine.New(w.config(seed))
	if err != nil {
		return nil, fmt.Errorf("%s: machine.New: %w", w.name, err)
	}
	t1 := time.Now()
	in := &instance{m: m}
	if w.program != nil {
		in.prog = w.program()
	} else if in.srcs, err = w.sources(seed); err != nil {
		return nil, fmt.Errorf("%s: sources: %w", w.name, err)
	}
	in.newDur, in.srcDur = t1.Sub(t0), time.Since(t1)
	return in, nil
}

// setupDur is the set-up time: machine.New plus building the inputs.
func (in *instance) setupDur() time.Duration { return in.newDur + in.srcDur }

// run simulates the instance to completion through the public entry point
// (RunProgram or Run) and returns the result and the call's wall time.
func (in *instance) run() (*machine.Result, time.Duration, error) {
	start := time.Now()
	var res *machine.Result
	var err error
	if in.prog != nil {
		res, err = in.m.RunProgram(in.prog)
	} else {
		res, err = in.m.Run(in.srcs)
	}
	return res, time.Since(start), err
}

// runMetered is run with every trace source wrapped in a meter. It does
// what RunProgram does — start the threads, run, reap the generators — with
// the wrappers in between.
func (in *instance) runMetered(meters *[]*sourceMeter) (*machine.Result, time.Duration, error) {
	start := time.Now()
	srcs := in.srcs
	if in.prog != nil {
		threads := in.prog.Start()
		defer in.prog.Close()
		srcs = make([]trace.Source, len(threads))
		for i, th := range threads {
			srcs[i] = th
		}
	}
	wrapped := make([]trace.Source, len(srcs))
	for i, s := range srcs {
		wrapped[i] = meter(s, meters)
	}
	res, err := in.m.Run(wrapped)
	return res, time.Since(start), err
}

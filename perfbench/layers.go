package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"mermaid/internal/cache"
	"mermaid/internal/machine"
	"mermaid/internal/pearl"
	"mermaid/internal/sim"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
	apps "mermaid/internal/workload"
)

// Layer calls: each times one layer through its public API on fixed,
// seed-derived inputs, independent of the workload being benchmarked, so
// the same row means the same thing on every workload.

// layerRepeats is how many times each layer call is timed; the median is
// reported.
const layerRepeats = 5

// Layer-call sizes, each a few tens of milliseconds per repeat.
const (
	handoffOps     = 100_000
	eventOps       = 300_000
	cacheOps       = 100_000
	routePairs     = 20_000
	annotateCells  = 4096
	annotateIters  = 8
	stochasticDim  = taskDim
	stochasticIter = 2
)

// medianNs times op repeats times and returns the median ns per unit, where
// op returns how many units it did.
func medianNs(repeats int, op func() (int, error)) (float64, error) {
	var per []float64
	for i := 0; i < repeats; i++ {
		start := time.Now()
		n, err := op()
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		if n <= 0 {
			return 0, errors.New("layer call did no work")
		}
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// handoffRound is one process handoff round trip: a process holds for a
// cycle, which parks it in the kernel and resumes it on the next event.
func handoffRound(n int) (int, error) {
	k := pearl.NewKernel()
	k.Spawn("holder", func(p *pearl.Process) {
		for i := 0; i < n; i++ {
			p.Hold(1)
		}
	})
	k.Run()
	return n, nil
}

// eventRound is one kernel event round trip: an event callback schedules
// the next, with no process involved.
func eventRound(n int) (int, error) {
	k := pearl.NewKernel()
	left := n
	var tick func()
	tick = func() {
		if left--; left > 0 {
			k.After(1, tick)
		}
	}
	k.After(1, tick)
	k.Run()
	return n, nil
}

// cacheReplay replays a seeded address stream through cache.Port.Access on
// the PPC601 node's cold L1/L2 hierarchy: mostly sequential words over a
// working set twice the L1 size, with random reads and writes mixed in.
func cacheReplay(n int, seed uint64) (int, error) {
	env := sim.NewEnv(derive(seed, streamMachine), nil)
	h, err := cache.NewHierarchy(env, "replay", machine.PPC601Node().Hierarchy)
	if err != nil {
		return 0, fmt.Errorf("cache hierarchy: %w", err)
	}
	rng := pearl.NewRNG(derive(seed, streamCache))
	const ws = 64 << 10
	addrs := make([]uint64, n)
	kinds := make([]cache.AccessKind, n)
	var seq uint64
	for i := range addrs {
		if rng.Bool(0.8) {
			seq = (seq + 8) % ws
			addrs[i] = seq
		} else {
			addrs[i] = uint64(rng.Intn(ws)) &^ 7
		}
		if rng.Bool(0.3) {
			kinds[i] = cache.Write
		}
	}
	port := h.Port(0)
	env.Kernel.Spawn("replay", func(p *pearl.Process) {
		for i, a := range addrs {
			port.Access(p, kinds[i], 0x100000+a, 8)
		}
	})
	env.Kernel.Run()
	return n, nil
}

// routeWalk routes seeded node pairs hop by hop across the task-random
// torus (Route then Neighbor per hop) and returns the hops walked.
func routeWalk(pairs int, seed uint64) (int, error) {
	t, err := topology.NewTorus(taskDim, taskDim)
	if err != nil {
		return 0, err
	}
	rng := pearl.NewRNG(derive(seed, streamRoute))
	hops := 0
	for i := 0; i < pairs; i++ {
		at, to := rng.Intn(t.Nodes()), rng.Intn(t.Nodes())
		for at != to {
			at = t.Neighbor(at, t.Route(at, to))
			if hops++; at < 0 {
				return 0, fmt.Errorf("route from %d fell off the torus", i)
			}
		}
	}
	return hops, nil
}

// annotateDrain generates a one-thread Jacobi program (annotate calls on a
// trace.Thread) and drains it batch by batch, returning the ops generated.
func annotateDrain(cells, iters int) (int, error) {
	prog := apps.Jacobi1D(1, cells, iters)
	threads := prog.Start()
	defer prog.Close()
	n := 0
	for {
		b, err := threads[0].NextBatch()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
		n += len(b)
	}
}

// stochasticGenerate runs stochastic.Generate on a task-random description
// and returns the ops generated.
func stochasticGenerate(seed uint64) (int, error) {
	tr, err := stochastic.Generate(taskDesc(stochasticDim*stochasticDim, stochasticIter, taskDuration, taskBytes, seed))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, t := range tr {
		n += len(t)
	}
	return n, nil
}

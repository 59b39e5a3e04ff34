package machine

import (
	"fmt"
	"testing"

	"mermaid/internal/pearl"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
)

// BenchmarkScaleEngine runs the same task-level machine and workload on the
// network fabric at growing node counts, reporting host time, allocations
// and simulated cycles per second.
func BenchmarkScaleEngine(b *testing.B) {
	run := func(b *testing.B, nodes int) {
		dim := 1
		for dim*dim < nodes {
			dim++
		}
		if dim*dim != nodes {
			b.Fatalf("nodes %d is not square", nodes)
		}
		cfg := GenericTaskMachine(topology.Config{Kind: topology.Torus2D, DimX: dim, DimY: dim}, nodes, router.VirtualCutThrough)
		cfg.Seed = 11
		desc := stochastic.Desc{
			Name: "bench", Nodes: nodes, Level: stochastic.TaskLevel,
			Seed: 5, Iterations: 4,
			Phases: []stochastic.Phase{{
				Duration: 500, CV: 0.2,
				Comm: stochastic.Comm{Pattern: stochastic.Exchange, Bytes: 512},
			}},
		}
		b.ReportAllocs()
		var cycles int64
		for i := 0; i < b.N; i++ {
			m, err := Build(sim.Env{Kernel: pearl.NewKernel(), RNG: pearl.NewRNG(cfg.Seed)}, cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := m.RunStochastic(desc)
			if err != nil {
				b.Fatal(err)
			}
			cycles = int64(res.Cycles)
		}
		b.ReportMetric(float64(cycles)*float64(b.N)/float64(b.Elapsed().Nanoseconds())*1e9, "cycles/s")
	}
	for _, nodes := range []int{256, 4096, 16384, 65536} {
		b.Run(fmt.Sprint(nodes), func(b *testing.B) { run(b, nodes) })
	}
}

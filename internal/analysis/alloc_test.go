package analysis

import (
	"testing"

	"mermaid/internal/pearl"
)

// The disabled analyzer must be free: every model calls the Collector
// unconditionally, so with analysis off (nil *Collector, nil *Monitor and
// *Scope) none of those calls may allocate. These gates keep the bottleneck
// engine from taxing uninstrumented simulations.

func TestAllocFreeNilCollector(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var c *Collector
	if got := testing.AllocsPerRun(200, func() {
		c.SetMachine("m", 2)
		c.RegisterCPU(0, "cpu", nil)
		c.RegisterResource("bus", "b", 1, nil)
		c.Resource("bus", nil)
		c.Compute(0, 0, 10)
		c.Send(0, 1, "send", 0, 10)
		c.Recv(0, 1, "recv", 0, 10)
		c.ProcessSpan(nil, 0, 10, "hold")
		_ = c.Enabled()
		_ = c.Analyze(100)
	}); got != 0 {
		t.Errorf("nil collector allocates %v times per op; want 0", got)
	}
}

func TestAllocFreeNilMonitor(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var m *Monitor
	var s *Scope
	k := pearl.NewKernel()
	if got := testing.AllocsPerRun(200, func() {
		s.Sample(k, nil)
		s.ObserveRun(10, 1)
		s.SetRuns(3)
		s.RunDone()
		s.Finish()
		_ = m.Addr()
		_ = m.Close()
	}); got != 0 {
		t.Errorf("nil monitor and scope allocate %v times per op; want 0", got)
	}
}

// A live collector's hot-path record calls (Compute/Send/Recv on pre-grown
// span slices, ProcessSpan on an already-seen reason) must stay cheap: after
// warm-up they amortise to zero allocations per operation thanks to slice
// doubling — the test tolerates the occasional growth by measuring many ops.
func TestCollectorRecordAmortisedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := New()
	c.RegisterCPU(0, "cpu0", func() CPUSample { return CPUSample{} })
	// Warm up: force the span slice and blocked table to their steady state.
	for i := 0; i < 4096; i++ {
		c.Compute(0, pearl.Time(i), pearl.Time(i+1))
		c.ProcessSpan(nil, pearl.Time(i), pearl.Time(i+1), "hold")
	}
	var at pearl.Time = 1 << 20
	got := testing.AllocsPerRun(1000, func() {
		c.ProcessSpan(nil, at, at+1, "hold")
		at++
	})
	if got != 0 {
		t.Errorf("ProcessSpan on a seen reason allocates %v times per op; want 0", got)
	}
}

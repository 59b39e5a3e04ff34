package machine

import (
	"strings"
	"testing"

	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/sim"
	"mermaid/internal/stochastic"
	"mermaid/internal/workload"
)

// sampleRunSeries attaches a RunSeries to m's sampling hook.
func sampleRunSeries(t *testing.T, m *Machine, every pearl.Time) *RunSeries {
	t.Helper()
	rs := NewRunSeries(m)
	if err := m.Kernel().Sample(pearl.Time(every), rs.Sample); err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestMonitorSamples(t *testing.T) {
	m, err := New(T805GridTaskLevel(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	rs := sampleRunSeries(t, m, 5000)
	res, err := m.RunStochastic(stochastic.Desc{
		Nodes: 4, Level: stochastic.TaskLevel, Seed: 7, Iterations: 10,
		Phases: []stochastic.Phase{{
			Duration: 10000,
			Comm:     stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Events.Len() < 5 {
		t.Fatalf("only %d samples over %d cycles", rs.Events.Len(), res.Cycles)
	}
	// Cumulative series must be non-decreasing.
	for i := 1; i < rs.Messages.Len(); i++ {
		if rs.Messages.V[i] < rs.Messages.V[i-1] {
			t.Fatal("message count series decreased")
		}
	}
	// The series ends with the end-of-run sample, at the run's last cycle.
	last := rs.Events.Len() - 1
	if got := rs.Events.T[last]; got != int64(res.Cycles) {
		t.Fatalf("last sample at %d, simulation ended at %d", got, res.Cycles)
	}
	if got := rs.Events.V[last]; got != float64(res.Events) {
		t.Errorf("last sample saw %v events, run had %d", got, res.Events)
	}
	var sb strings.Builder
	if err := rs.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "kernel events") || !strings.Contains(sb.String(), "samples") {
		t.Fatalf("render output:\n%s", sb.String())
	}
}

// A run shorter than one sampling interval must still end with a sample:
// the hook's end-of-run sample records the whole of a short run instead of
// dropping it.
func TestMonitorFinalSample(t *testing.T) {
	m, err := New(T805GridTaskLevel(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	rs := sampleRunSeries(t, m, 1_000_000) // far beyond the run length
	res, err := m.RunStochastic(stochastic.Desc{
		Nodes: 4, Level: stochastic.TaskLevel, Seed: 7, Iterations: 1,
		Phases: []stochastic.Phase{{
			Duration: 100,
			Comm:     stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 64},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Events.Len() != 1 {
		t.Fatalf("short run recorded %d samples, want exactly the end-of-run one", rs.Events.Len())
	}
	if got := rs.Events.V[0]; got != float64(res.Events) {
		t.Errorf("final sample saw %v events, run had %d", got, res.Events)
	}
	if got := rs.Events.T[0]; got != int64(res.Cycles) {
		t.Errorf("final sample at %d, run ended at %d", got, res.Cycles)
	}
}

func TestMonitorDetailedMode(t *testing.T) {
	m, err := New(T805Grid(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	rs := sampleRunSeries(t, m, 500)
	if _, err := m.RunProgram(workload.PingPong(20, 2048)); err != nil {
		t.Fatal(err)
	}
	if rs.BusUtil.Len() == 0 {
		t.Fatal("no bus utilisation samples in detailed mode")
	}
}

// The hook rejects a zero or negative interval and a second sampler; a
// caller with several readers calls them from one hook.
func TestMonitorValidation(t *testing.T) {
	m, _ := New(T805Grid(2, 1))
	rs := NewRunSeries(m)
	for _, every := range []pearl.Time{0, -5} {
		if err := m.Kernel().Sample(pearl.Time(every), rs.Sample); err == nil {
			t.Fatalf("expected error for interval %d", every)
		}
	}
	if err := m.Kernel().Sample(100, rs.Sample); err != nil {
		t.Fatal(err)
	}
	if err := m.Kernel().Sample(100, rs.Sample); err == nil {
		t.Fatal("expected error for a second sampler")
	}
}

// The -metrics CSV carries every series of the run-time monitor: kernel
// events, messages, mean link utilisation and each node's bus utilisation.
func TestMonitorCSV(t *testing.T) {
	env := sim.NewEnv(1, nil)
	env.Probe = probe.New(probe.Config{})
	m, err := Build(env, T805Grid(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	reg := env.Registry()
	if err := m.Kernel().Sample(5000, reg.Sample); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunProgram(workload.PingPong(20, 2048)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("csv too short:\n%s", sb.String())
	}
	header := strings.Split(lines[0], ",")
	for _, want := range []string{"cycle", "kernel.events", "net.messages", "net.link-utilization.avg",
		"node0.bus.utilization", "node1.bus.utilization"} {
		found := false
		for _, h := range header {
			found = found || h == want
		}
		if !found {
			t.Errorf("CSV header lacks %q: %s", want, lines[0])
		}
	}
}

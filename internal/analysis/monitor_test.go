package analysis_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// The monitor serves a scope's live kernel and registry state over HTTP
// without touching the simulation from handler goroutines: /metrics is
// Prometheus text exposition, /progress is a JSON snapshot with run
// completion.
func TestMonitorEndpoints(t *testing.T) {
	scope := analysis.NewScope()
	mon, err := analysis.NewMonitor("127.0.0.1:0", scope)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if mon.Addr() == "" {
		t.Fatal("monitor has no bound address")
	}

	k := pearl.NewKernel()
	pb := probe.New(probe.Config{})
	reg := pb.Registry()
	var msgs float64 = 42
	reg.Gauge("net.messages", "count", func() float64 { return msgs })

	k.Spawn("worker", func(p *pearl.Process) {
		for i := 0; i < 100; i++ {
			p.Hold(10)
		}
	})
	scope.SetRuns(3)
	if err := k.Sample(50, func(pearl.Time) { scope.Sample(k, reg) }); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(1000)
	scope.RunDone()
	scope.RunDone()

	metrics, ctype := get(t, "http://"+mon.Addr()+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q, want text/plain", ctype)
	}
	for _, want := range []string{
		"# TYPE mermaid_virtual_cycles gauge",
		"mermaid_virtual_cycles 1000",
		"# TYPE mermaid_events_total counter",
		"# TYPE mermaid_net_messages gauge",
		"mermaid_net_messages 42",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	progress, ctype := get(t, "http://"+mon.Addr()+"/progress")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/progress content type = %q, want application/json", ctype)
	}
	var p struct {
		VirtualCycles int64   `json:"virtualCycles"`
		Events        uint64  `json:"events"`
		WallSeconds   float64 `json:"wallSeconds"`
		RunsDone      int     `json:"runsDone"`
		RunsTotal     int     `json:"runsTotal"`
		Done          bool    `json:"done"`
	}
	if err := json.Unmarshal([]byte(progress), &p); err != nil {
		t.Fatalf("/progress is not valid JSON: %v\n%s", err, progress)
	}
	if p.VirtualCycles != 1000 || p.Events != k.EventCount() {
		t.Errorf("/progress = %d cycles, %d events; want the end-of-run 1000, %d", p.VirtualCycles, p.Events, k.EventCount())
	}
	if p.RunsDone != 2 || p.RunsTotal != 3 {
		t.Errorf("/progress runs = %d/%d, want 2/3", p.RunsDone, p.RunsTotal)
	}
	if p.Done {
		t.Error("/progress reports done before Finish")
	}

	scope.Finish()
	progress, _ = get(t, "http://"+mon.Addr()+"/progress")
	if err := json.Unmarshal([]byte(progress), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Done {
		t.Error("/progress does not report done after Finish")
	}

	// Sampling is not an event: the 100 holds are the only events, and the
	// run's clock is the worker's.
	if k.EventCount() != 101 || k.Now() != 1000 {
		t.Errorf("sampled run: %d events at %d, want 101 at 1000", k.EventCount(), k.Now())
	}
}

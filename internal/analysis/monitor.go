package analysis

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"mermaid/internal/pearl"
	"mermaid/internal/probe"
)

// Scope is the live state of one monitored simulation: a mutex-protected
// snapshot that the simulation side writes (Sample from the kernel's
// sampling hook, or ObserveRun/RunDone from farm workers) and any number of
// HTTP handlers read.
//
// The CLI serves one scope through a Monitor, while the simulation server
// gives every job its own scope, so two jobs running concurrently report
// independent progress and metrics streams.
//
// A nil *Scope is the disabled scope: every method no-ops without
// allocating.
type Scope struct {
	mu   sync.Mutex
	snap snapshot

	started time.Time
}

// NewScope returns an empty scope whose wall clock starts now.
func NewScope() *Scope {
	return &Scope{started: time.Now()}
}

// snapshot is what the handlers may read: plain values copied out of the
// simulation on its own goroutine.
type snapshot struct {
	virtual   int64
	events    uint64
	metrics   []metricSample
	runsDone  int
	runsTotal int
	finished  bool
}

type metricSample struct {
	name  string
	unit  string
	value float64
}

// progressJSON is the wire format of GET /progress.
type progressJSON struct {
	VirtualCycles int64   `json:"virtualCycles"`
	Events        uint64  `json:"events"`
	EventsPerSec  float64 `json:"eventsPerSec"`
	WallSeconds   float64 `json:"wallSeconds"`
	RunsDone      int     `json:"runsDone"`
	RunsTotal     int     `json:"runsTotal"`
	Done          bool    `json:"done"`
}

// Sample copies the current kernel and registry state into the snapshot.
// Call it from the kernel's sampling hook, which also takes the end-of-run
// sample, so the snapshot ends with the exact end-of-run values:
//
//	k.Sample(every, func(pearl.Time) { s.Sample(k, reg) })
//
// Must run on the simulation goroutine.
func (s *Scope) Sample(k *pearl.Kernel, reg *probe.Registry) {
	if s == nil {
		return
	}
	ms := readRegistry(reg)
	s.mu.Lock()
	s.snap.virtual = int64(k.Now())
	s.snap.events = k.EventCount()
	s.snap.metrics = ms
	s.mu.Unlock()
}

// ObserveRun accumulates a completed run's simulated volume into the
// snapshot — the farm path's progress feed, where no single kernel can be
// watched. Safe to call from worker goroutines.
func (s *Scope) ObserveRun(cycles pearl.Time, events uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.snap.virtual += int64(cycles)
	s.snap.events += events
	s.mu.Unlock()
}

// SetRuns declares how many runs (experiments × repeats) the scope covers,
// for the completion fraction in /progress.
func (s *Scope) SetRuns(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.snap.runsTotal = n
	s.mu.Unlock()
}

// RunDone marks one run complete. Safe to call from farm worker goroutines.
func (s *Scope) RunDone() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.snap.runsDone++
	s.mu.Unlock()
}

// Finish marks the scope's work complete; progress reports done:true.
func (s *Scope) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.snap.finished = true
	s.mu.Unlock()
}

// WriteMetrics renders the scope's last sampled state in Prometheus text
// exposition format: the virtual clock, the event count, and every registry
// metric under a collision-free mermaid_-prefixed name.
func (s *Scope) WriteMetrics(w io.Writer) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	snap := s.snap // Sample replaces the metrics slice, never mutates it
	s.mu.Unlock()
	return writeProm(w, &snap, snap.metrics)
}

// WriteProgress renders the scope's completion state as the /progress JSON
// document.
func (s *Scope) WriteProgress(w io.Writer) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	p := progressJSON{
		VirtualCycles: s.snap.virtual,
		Events:        s.snap.events,
		RunsDone:      s.snap.runsDone,
		RunsTotal:     s.snap.runsTotal,
		Done:          s.snap.finished,
	}
	started := s.started
	s.mu.Unlock()
	p.WallSeconds = time.Since(started).Seconds()
	p.EventsPerSec = eventsPerSec(p.Events, p.WallSeconds)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// Monitor serves a Scope over HTTP while a simulation executes: GET
// /metrics returns the scope's last sample in Prometheus text exposition
// format, GET /progress returns a JSON snapshot of virtual time, wall time,
// event throughput and run completion.
//
// The simulation goroutine owns the kernel and registry; the handlers never
// touch them. They serve the scope's snapshot, which the simulation side
// fills through the scope's methods.
//
// A nil *Monitor is the disabled monitor: every method no-ops without
// allocating.
type Monitor struct {
	ln  net.Listener
	srv *http.Server
}

// NewMonitor starts serving s on addr (host:port; port 0 picks a free
// port). Returns an error if the address cannot be bound.
func NewMonitor(addr string, s *Scope) (*Monitor, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w) //nolint:errcheck // best-effort over HTTP
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.WriteProgress(w) //nolint:errcheck // best-effort over HTTP
	})
	m := &Monitor{ln: ln, srv: &http.Server{Handler: mux}}
	go m.srv.Serve(ln) //nolint:errcheck // closed via Close
	return m, nil
}

// Addr returns the bound address, e.g. "127.0.0.1:41373".
func (m *Monitor) Addr() string {
	if m == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// closeDeadline bounds how long Close waits for in-flight scrapes.
const closeDeadline = 2 * time.Second

// Close shuts the HTTP server down gracefully: the listener closes
// immediately (no new scrapes), but requests already being answered run to
// completion, so the final scrape of a finished run is never truncated
// mid-response. A client that still has not drained its response at the
// deadline is cut off hard so Close can never hang the process.
func (m *Monitor) Close() error {
	if m == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), closeDeadline)
	defer cancel()
	if err := m.srv.Shutdown(ctx); err != nil {
		return m.srv.Close()
	}
	return nil
}

// promNames converts dotted registry metric names to Prometheus-legal,
// mermaid_-prefixed ones. Alphanumerics pass through and every other rune
// becomes '_' — familiar, but lossy: distinct registry names like
// "node0.cache.l1d" and "node0_cache.l1d" would fold into one Prometheus
// name, and scrapers reject expositions with duplicate metric names. Any
// group of input names whose sanitized forms collide therefore gets a
// disambiguating suffix — '_' plus the FNV-1a hash of the original name —
// on every member, keeping the common case pretty and the mapping
// deterministic and injective (up to FNV collisions within one group).
func promNames(names []string) []string {
	out := make([]string, len(names))
	count := make(map[string]int, len(names))
	for i, n := range names {
		out[i] = sanitizeProm(n)
		count[out[i]]++
	}
	for i, n := range names {
		if count[out[i]] > 1 {
			h := fnv.New32a()
			io.WriteString(h, n) //nolint:errcheck // hash writes cannot fail
			out[i] = fmt.Sprintf("%s_%08x", out[i], h.Sum32())
		}
	}
	return out
}

func sanitizeProm(name string) string {
	var b strings.Builder
	b.WriteString("mermaid_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteRegistryMetrics renders the registry's current values in Prometheus
// text exposition format with the same collision-free naming as a scope's
// metrics. Unlike a Scope — which serves values sampled on the simulation
// goroutine — this reads the registry's gauges directly, so it is only for
// registries whose readers are safe to call from HTTP handlers (the
// simulation server's own service counters, host telemetry), not a live
// machine model.
func WriteRegistryMetrics(w io.Writer, reg *probe.Registry) error {
	return writeProm(w, nil, readRegistry(reg))
}

// readRegistry evaluates every registry metric, sorted by name.
func readRegistry(reg *probe.Registry) []metricSample {
	if reg.Len() == 0 {
		return nil
	}
	ms := make([]metricSample, 0, reg.Len())
	for _, e := range reg.Entries() {
		ms = append(ms, metricSample{name: e.Name, unit: e.Unit, value: e.Read()})
	}
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return ms
}

// writeProm is the one Prometheus text exposition writer: per-job scopes,
// the server's service registry and host telemetry all render through it.
// A non-nil clock leads with the virtual-cycle gauge and the event counter;
// ms, sorted by name, follow as gauges under collision-free names.
func writeProm(w io.Writer, clock *snapshot, ms []metricSample) error {
	if clock != nil {
		if _, err := fmt.Fprintf(w, "# TYPE mermaid_virtual_cycles gauge\nmermaid_virtual_cycles %d\n"+
			"# TYPE mermaid_events_total counter\nmermaid_events_total %d\n", clock.virtual, clock.events); err != nil {
			return err
		}
	}
	names := make([]string, len(ms))
	for i := range ms {
		names[i] = ms[i].name
	}
	for i, n := range promNames(names) {
		if ms[i].unit != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s unit: %s\n", n, ms[i].unit); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", n, n, ms[i].value); err != nil {
			return err
		}
	}
	return nil
}

// eventsPerSec computes the host event throughput, reporting 0 when the
// interval is degenerate: a zero or negative wall clock (a request landing in
// the same tick the monitor started, or a stepped clock) must not divide to
// Inf/NaN in the JSON, and a denormal-small interval must not overflow.
func eventsPerSec(events uint64, wallSeconds float64) float64 {
	if wallSeconds <= 0 {
		return 0
	}
	rate := float64(events) / wallSeconds
	if math.IsInf(rate, 0) || math.IsNaN(rate) {
		return 0
	}
	return rate
}

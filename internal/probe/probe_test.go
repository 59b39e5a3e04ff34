package probe

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mermaid/internal/pearl"
	"mermaid/internal/stats"
)

func TestNilProbeAccessors(t *testing.T) {
	var p *Probe
	if p.Timeline() != nil {
		t.Error("nil probe returned a timeline")
	}
	if p.Registry() != nil {
		t.Error("nil probe returned a registry")
	}
}

func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	var c stats.Counter
	r.Counter("a.b", &c)
	r.Gauge("c.d", "", func() float64 { return 1 })
	r.Sample(10)
	if r.Len() != 0 || r.Entries() != nil || r.Lookup("a.b") != nil || r.Dump() != nil {
		t.Error("nil registry is not inert")
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Errorf("nil registry CSV: %v", err)
	}
}

func TestNilTimelineNoOps(t *testing.T) {
	var tl *Timeline
	tr := tl.Track("x")
	tl.Span(tr, "s", 0, 10)
	tl.Instant(tr, "i", 5)
	tl.TrackProcess(nil, "p")
	tl.ProcessSpan(nil, 0, 1, "hold")
	if tl.Events() != 0 {
		t.Error("nil timeline recorded events")
	}
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil timeline JSON invalid: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("nil timeline emitted %d events", len(doc.TraceEvents))
	}
}

func TestRegistryRegisterAndDump(t *testing.T) {
	p := New(Config{})
	reg := p.Registry()
	var misses stats.Counter
	misses.Add(7)
	reg.Counter("node0.cache.l1d.misses", &misses)
	reg.Gauge("node0.bus.utilization", "", func() float64 { return 0.5 })
	if reg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", reg.Len())
	}
	if e := reg.Lookup("node0.cache.l1d.misses"); e == nil || e.Read() != 7 {
		t.Fatalf("Lookup miss counter: %+v", e)
	}
	// Re-registering a name replaces the reader but keeps its position.
	reg.Gauge("node0.bus.utilization", "", func() float64 { return 0.75 })
	if reg.Len() != 2 {
		t.Fatalf("re-register grew the registry to %d", reg.Len())
	}
	d := reg.Dump()
	if d.Name != "registry" || len(d.Metrics) != 2 {
		t.Fatalf("dump = %+v", d)
	}
	if d.Metrics[0].Name != "node0.cache.l1d.misses" || d.Metrics[0].Value != 7 {
		t.Errorf("dump[0] = %+v", d.Metrics[0])
	}
	if d.Metrics[1].Value != 0.75 {
		t.Errorf("dump[1] = %+v, want replaced reader value 0.75", d.Metrics[1])
	}
}

func TestRegistrySamplerAndCSV(t *testing.T) {
	k := pearl.NewKernel()
	p := New(Config{})
	reg := p.Registry()
	var c stats.Counter
	reg.Counter("net.messages", &c)
	if err := k.Sample(0, reg.Sample); err == nil {
		t.Fatal("the sampling hook accepted a zero interval")
	}
	if err := k.Sample(10, reg.Sample); err != nil {
		t.Fatal(err)
	}
	// The work ends at 35; the counter grows along the way.
	k.After(5, func() { c.Add(1) })
	k.After(15, func() { c.Add(1) })
	k.After(35, func() {})
	// The sampler is not an event, so it cannot outlive the work.
	if end := k.Run(); end != 35 {
		t.Fatalf("simulation ended at %d, want 35 (the last event)", end)
	}
	e := reg.Lookup("net.messages")
	// Samples at the boundaries 10, 20 and 30, then the end-of-run sample.
	wantT := []int64{10, 20, 30, 35}
	wantV := []float64{1, 2, 2, 2}
	if !reflect.DeepEqual(e.Series.T, wantT) || !reflect.DeepEqual(e.Series.V, wantV) {
		t.Fatalf("samples T=%v V=%v, want T=%v V=%v", e.Series.T, e.Series.V, wantT, wantV)
	}
	var buf bytes.Buffer
	if err := reg.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV lines = %d, want header + 4 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "cycle,net.messages" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "10,") || !strings.HasPrefix(lines[4], "35,") {
		t.Errorf("CSV rows = %q", lines[1:])
	}
}

func TestTimelineSampling(t *testing.T) {
	p := New(Config{Timeline: true, SampleEvery: 3})
	tl := p.Timeline()
	tr := tl.Track("cpu")
	for i := 0; i < 9; i++ {
		tl.Span(tr, "s", pearl.Time(i), pearl.Time(i+1))
	}
	if tl.Events() != 3 {
		t.Errorf("kept %d of 9 events at 1-in-3 sampling, want 3", tl.Events())
	}
}

func TestTimelineWriteJSON(t *testing.T) {
	p := New(Config{Timeline: true})
	tl := p.Timeline()
	cpu := tl.Track("node0.cpu0")
	bus := tl.Track("node0.bus.0")
	link := tl.Track("net.link0.0.vc0")
	tl.Span(bus, "txn", 5, 9)
	tl.Span(cpu, "compute", 0, 10)
	tl.Instant(link, "drop", 7)
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  *int64         `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace-event JSON: %v\n%s", err, buf.String())
	}
	// Two groups (node0, net) and three tracks -> 5 metadata events, then the
	// recorded events sorted by timestamp.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("traceEvents = %d entries, want 8", len(doc.TraceEvents))
	}
	var meta, spans, instants int
	lastTs := map[[2]int]int64{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			continue
		case "X":
			spans++
			if ev.Dur == nil {
				t.Errorf("span %q lacks dur", ev.Name)
			}
		case "i":
			instants++
			if ev.S != "t" {
				t.Errorf("instant scope = %q, want t", ev.S)
			}
		default:
			t.Errorf("unknown phase %q", ev.Ph)
		}
		key := [2]int{ev.Pid, ev.Tid}
		if ev.Ts < lastTs[key] {
			t.Errorf("track %v timestamps not monotonic: %d after %d", key, ev.Ts, lastTs[key])
		}
		lastTs[key] = ev.Ts
	}
	if meta != 5 || spans != 2 || instants != 1 {
		t.Errorf("meta/spans/instants = %d/%d/%d, want 5/2/1", meta, spans, instants)
	}
	// The compute span (ts 0) must precede the bus span (ts 5) despite being
	// recorded second.
	if doc.TraceEvents[5].Name != "compute" || doc.TraceEvents[6].Name != "txn" {
		t.Errorf("events not time-sorted: %q then %q", doc.TraceEvents[5].Name, doc.TraceEvents[6].Name)
	}
	// Byte-identical re-export: the writer must be deterministic.
	var buf2 bytes.Buffer
	if err := tl.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("WriteJSON output differs between calls")
	}
}

func TestKernelBlockSpansOptIn(t *testing.T) {
	k := pearl.NewKernel()
	p := New(Config{Timeline: true})
	tl := p.Timeline()
	k.SetTracer(tl)
	tracked := k.Spawn("tracked", func(pr *pearl.Process) {
		pr.Hold(10)
		pr.Hold(5)
	})
	k.Spawn("ignored", func(pr *pearl.Process) {
		pr.Hold(7)
	})
	tl.TrackProcess(tracked, "node0.cpu0")
	k.Run()
	// Two hold spans from the tracked process; the unregistered process must
	// contribute nothing.
	if tl.Events() != 2 {
		t.Fatalf("events = %d, want 2 (opt-in only)", tl.Events())
	}
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"hold"`) {
		t.Errorf("block spans missing hold reason:\n%s", out)
	}
	if strings.Contains(out, "ignored") {
		t.Errorf("unregistered process leaked into the timeline:\n%s", out)
	}
}

// The CSV export is consumed by external tools, so its shape is pinned:
// columns appear in registration order behind the cycle column, and metric
// names containing CSV metacharacters (commas, quotes) are escaped per RFC
// 4180 rather than corrupting the header.
func TestWriteCSVDeterministicOrderAndEscaping(t *testing.T) {
	p := New(Config{})
	reg := p.Registry()
	reg.Gauge("plain.metric", "", func() float64 { return 1 })
	reg.Gauge(`latency,p99`, "cyc", func() float64 { return 2 })
	reg.Gauge(`say "hi"`, "", func() float64 { return 3 })
	reg.Sample(10)
	reg.Sample(20)

	var buf bytes.Buffer
	if err := reg.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	wantHeader := `cycle,plain.metric,"latency,p99","say ""hi"""`
	if lines[0] != wantHeader {
		t.Errorf("CSV header = %q, want %q", lines[0], wantHeader)
	}

	// Round-trip through a real CSV reader: the embedded comma and quotes
	// must come back as the original metric names, in registration order.
	rd := csv.NewReader(strings.NewReader(buf.String()))
	rows, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("exported CSV does not re-parse: %v", err)
	}
	want := []string{"cycle", "plain.metric", `latency,p99`, `say "hi"`}
	if !reflect.DeepEqual(rows[0], want) {
		t.Errorf("parsed header = %q, want %q", rows[0], want)
	}
	if rows[1][0] != "10" || rows[2][0] != "20" {
		t.Errorf("cycle column = %q/%q, want 10/20", rows[1][0], rows[2][0])
	}
	if rows[1][2] != "2" || rows[1][3] != "3" {
		t.Errorf("value row = %q, want columns in registration order", rows[1])
	}

	// A second export must be byte-identical.
	var buf2 bytes.Buffer
	if err := reg.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("WriteCSV output differs between calls")
	}
}

package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mermaid/internal/pearl"
	"mermaid/internal/server"
)

type jobResp struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Key    string `json:"key"`
	Error  string `json:"error"`
	Cycles int64  `json:"cycles"`
	Events uint64 `json:"events"`
}

func startServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// torusJob is a small deterministic task-level job: a 4x4 torus driven by a
// nearest-neighbour stochastic workload.
func torusJob(name string, seed uint64, iterations int) string {
	return fmt.Sprintf(`{
		"name": %q,
		"topology": "torus:4x4",
		"seed": %d,
		"workload": {
			"Level": "task",
			"Iterations": %d,
			"Phases": [{"Duration": 5000, "Comm": {"Pattern": "nearest", "Bytes": 1024}}]
		}
	}`, name, seed, iterations)
}

func submit(t *testing.T, ts *httptest.Server, body string) (jobResp, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var j jobResp
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &j); err != nil {
			t.Fatalf("submit response not JSON: %v\n%s", err, data)
		}
	} else {
		j.Error = string(data)
	}
	return j, resp.StatusCode
}

func get(t *testing.T, ts *httptest.Server, path string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp.StatusCode
}

func waitDone(t *testing.T, ts *httptest.Server, id string) jobResp {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		data, code := get(t, ts, "/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d\n%s", id, code, data)
		}
		var j jobResp
		if err := json.Unmarshal(data, &j); err != nil {
			t.Fatal(err)
		}
		switch j.State {
		case "done":
			return j
		case "failed":
			t.Fatalf("job %s failed: %s", id, j.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobResp{}
}

// The headline acceptance path: submit a job, poll its progress to
// completion, fetch every artifact; resubmit the identical document and get
// a byte-identical report straight from the cache, with the hit visible in
// the server-level /metrics.
func TestSubmitPollFetchAndCacheHit(t *testing.T) {
	srv, ts := startServer(t, server.Config{Workers: 2, SampleEvery: 1000})

	j1, code := submit(t, ts, torusJob("first", 42, 10))
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d (%s)", code, j1.Error)
	}
	if j1.Cached || j1.ID == "" {
		t.Fatalf("first submission: %+v", j1)
	}
	done := waitDone(t, ts, j1.ID)
	if done.Cycles <= 0 || done.Events == 0 {
		t.Errorf("finished job reports no volume: %+v", done)
	}

	// Progress: a finished job reports done with 1/1 runs.
	progress, code := get(t, ts, "/jobs/"+j1.ID+"/progress")
	if code != http.StatusOK {
		t.Fatalf("progress: %d", code)
	}
	var p struct {
		VirtualCycles int64 `json:"virtualCycles"`
		RunsDone      int   `json:"runsDone"`
		RunsTotal     int   `json:"runsTotal"`
		Done          bool  `json:"done"`
	}
	if err := json.Unmarshal(progress, &p); err != nil {
		t.Fatalf("progress not JSON: %v\n%s", err, progress)
	}
	if !p.Done || p.RunsDone != 1 || p.RunsTotal != 1 || p.VirtualCycles != done.Cycles {
		t.Errorf("progress = %+v, job = %+v", p, done)
	}

	// Artifacts: report text, Chrome-trace timeline, bottleneck JSON,
	// per-job metrics exposition.
	report1, code := get(t, ts, "/jobs/"+j1.ID+"/report")
	if code != http.StatusOK || !bytes.Contains(report1, []byte("simulated time:")) {
		t.Fatalf("report: %d\n%s", code, report1)
	}
	timeline, code := get(t, ts, "/jobs/"+j1.ID+"/timeline")
	if code != http.StatusOK {
		t.Fatalf("timeline: %d", code)
	}
	var tl struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(timeline, &tl); err != nil || len(tl.TraceEvents) == 0 {
		t.Errorf("timeline invalid (%v) or empty", err)
	}
	bottleneck, code := get(t, ts, "/jobs/"+j1.ID+"/bottleneck")
	if code != http.StatusOK || !json.Valid(bottleneck) {
		t.Fatalf("bottleneck: %d", code)
	}
	metrics1, code := get(t, ts, "/jobs/"+j1.ID+"/metrics")
	if code != http.StatusOK || !bytes.Contains(metrics1, []byte("mermaid_events_total")) {
		t.Fatalf("job metrics: %d\n%s", code, metrics1)
	}

	// Resubmission: identical document, cache hit, no simulation.
	misses := srv.Cache().Misses()
	j2, code := submit(t, ts, torusJob("first", 42, 10))
	if code != http.StatusOK {
		t.Fatalf("resubmission: status %d (%s)", code, j2.Error)
	}
	if !j2.Cached || j2.State != "done" {
		t.Fatalf("resubmission not served from cache: %+v", j2)
	}
	if j2.ID == j1.ID {
		t.Error("resubmission reused the job id")
	}
	if j2.Key != j1.Key {
		t.Errorf("identical jobs got different cache keys: %s vs %s", j1.Key, j2.Key)
	}
	if srv.Cache().Hits() == 0 || srv.Cache().Misses() != misses {
		t.Errorf("cache hits/misses = %d/%d after resubmission", srv.Cache().Hits(), srv.Cache().Misses())
	}
	report2, _ := get(t, ts, "/jobs/"+j2.ID+"/report")
	if !bytes.Equal(report1, report2) {
		t.Error("cached report is not byte-identical to the original")
	}
	metrics2, _ := get(t, ts, "/jobs/"+j2.ID+"/metrics")
	if !bytes.Equal(metrics1, metrics2) {
		t.Error("cached metrics exposition is not byte-identical to the original")
	}

	// The hit and the miss are visible on the server-level exposition.
	sm, code := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{"mermaid_resultcache_hits 1", "mermaid_jobs_completed 1"} {
		if !bytes.Contains(sm, []byte(want)) {
			t.Errorf("server /metrics missing %q:\n%s", want, sm)
		}
	}

	// A different seed is a different address: miss, fresh run.
	j3, code := submit(t, ts, torusJob("reseeded", 43, 10))
	if code != http.StatusAccepted || j3.Cached {
		t.Fatalf("different seed served from cache: %d %+v", code, j3)
	}
	waitDone(t, ts, j3.ID)
	report3, _ := get(t, ts, "/jobs/"+j3.ID+"/report")
	if bytes.Equal(report1, report3) {
		t.Error("different seeds produced byte-identical reports")
	}
}

// A job's results do not depend on the live sampling interval: sampling
// is not an event, so reports, end-of-run metrics and event counts are
// byte-identical however often the scope is sampled — apart from the
// report's three host-time lines, which differ between any two runs. The
// cache key, which leaves SampleEvery out, relies on this.
func TestResultsIndependentOfSampleEvery(t *testing.T) {
	type outcome struct {
		job             jobResp
		report, metrics []byte
	}
	run := func(every pearl.Time) outcome {
		_, ts := startServer(t, server.Config{Workers: 1, SampleEvery: every})
		j, code := submit(t, ts, torusJob("sampled", 3, 4))
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", code, j.Error)
		}
		done := waitDone(t, ts, j.ID)
		report, code := get(t, ts, "/jobs/"+j.ID+"/report")
		if code != http.StatusOK {
			t.Fatalf("report: %d", code)
		}
		metrics, code := get(t, ts, "/jobs/"+j.ID+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics: %d", code)
		}
		return outcome{done, simulatedLines(report), metrics}
	}
	fine, coarse := run(500), run(1_000_000)
	if len(fine.report) == 0 {
		t.Fatal("empty report")
	}
	if fine.job.Events != coarse.job.Events || fine.job.Cycles != coarse.job.Cycles {
		t.Errorf("SampleEvery 500: %d cycles, %d events; 1000000: %d cycles, %d events",
			fine.job.Cycles, fine.job.Events, coarse.job.Cycles, coarse.job.Events)
	}
	if !bytes.Equal(fine.report, coarse.report) {
		t.Errorf("reports differ with the sampling interval\n--- 500 ---\n%s\n--- 1000000 ---\n%s", fine.report, coarse.report)
	}
	if !bytes.Equal(fine.metrics, coarse.metrics) {
		t.Errorf("end-of-run metrics differ with the sampling interval\n--- 500 ---\n%s\n--- 1000000 ---\n%s", fine.metrics, coarse.metrics)
	}
}

// simulatedLines drops the report lines that measure the host rather than
// the simulation.
func simulatedLines(report []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(report, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("host wall time:")) || bytes.HasPrefix(line, []byte("sim speed:")) ||
			bytes.HasPrefix(line, []byte("slowdown/proc:")) {
			continue
		}
		out = append(out, line...)
	}
	return out
}

// Two jobs running concurrently must report independent progress streams:
// each scope sees only its own job's virtual clock and completion.
func TestConcurrentJobsIndependentProgress(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 2, SampleEvery: 500})

	long, code := submit(t, ts, torusJob("long", 7, 400))
	if code != http.StatusAccepted {
		t.Fatalf("long: %d", code)
	}
	short, code := submit(t, ts, torusJob("short", 8, 3))
	if code != http.StatusAccepted {
		t.Fatalf("short: %d", code)
	}

	// The short job finishes while the long one is still running (or at
	// least: the two progress documents never alias each other's state).
	shortDone := waitDone(t, ts, short.ID)
	longDone := waitDone(t, ts, long.ID)
	if shortDone.Cycles == longDone.Cycles {
		t.Errorf("3- and 400-iteration jobs report equal cycles %d", shortDone.Cycles)
	}

	var ps, pl struct {
		VirtualCycles int64 `json:"virtualCycles"`
		RunsTotal     int   `json:"runsTotal"`
	}
	data, _ := get(t, ts, "/jobs/"+short.ID+"/progress")
	if err := json.Unmarshal(data, &ps); err != nil {
		t.Fatal(err)
	}
	data, _ = get(t, ts, "/jobs/"+long.ID+"/progress")
	if err := json.Unmarshal(data, &pl); err != nil {
		t.Fatal(err)
	}
	if ps.VirtualCycles != shortDone.Cycles || pl.VirtualCycles != longDone.Cycles {
		t.Errorf("progress scopes leaked: short %d/%d, long %d/%d",
			ps.VirtualCycles, shortDone.Cycles, pl.VirtualCycles, longDone.Cycles)
	}
	if ps.RunsTotal != 1 || pl.RunsTotal != 1 {
		t.Errorf("per-job scopes should cover one run each: %+v %+v", ps, pl)
	}
}

// While a job is queued or running its artifacts answer 409, not 404 or a
// partial document.
func TestArtifactsBeforeCompletion(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1, SampleEvery: 500})
	j, code := submit(t, ts, torusJob("slow", 9, 400))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if data, code := get(t, ts, "/jobs/"+j.ID+"/report"); code != http.StatusConflict {
		t.Errorf("report before completion: %d\n%s", code, data)
	}
	waitDone(t, ts, j.ID)
	if _, code := get(t, ts, "/jobs/"+j.ID+"/report"); code != http.StatusOK {
		t.Errorf("report after completion: %d", code)
	}
}

func TestSubmissionValidation(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"empty", `{}`},
		{"bad json", `{"topology":`},
		{"both machine forms", `{"topology":"torus:4x4","config":{"Name":"x"},"workload":{}}`},
		{"unknown topology", `{"topology":"moebius:7","workload":{"Level":"task","Iterations":1,"Phases":[{"Duration":1}]}}`},
		{"no workload", `{"topology":"torus:4x4"}`},
		{"level mismatch", `{"topology":"torus:4x4","workload":{"Level":"instruction","Iterations":1,"Phases":[{"Instructions":10}]}}`},
		{"node mismatch", `{"topology":"torus:4x4","workload":{"Level":"task","Nodes":5,"Iterations":1,"Phases":[{"Duration":1}]}}`},
		{"unknown field", `{"topology":"torus:4x4","workload":{"Level":"task","Iterations":1,"Phases":[{"Duration":1}]},"x":1}`},
		{"engine field", `{"topology":"torus:4x4","engine":"compact","workload":{"Level":"task","Iterations":1,"Phases":[{"Duration":1}]}}`},
	}
	for _, tc := range cases {
		if _, code := submit(t, ts, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	if data, code := get(t, ts, "/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d\n%s", code, data)
	}
}

// A full queue sheds load with 503 instead of queueing unboundedly.
func TestQueueBackpressure503(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1, QueueDepth: 1, SampleEvery: 500})
	// One long job occupies the worker; more fill the one-slot queue; the
	// rest must be refused.
	refused := 0
	for i := 0; i < 6; i++ {
		_, code := submit(t, ts, torusJob(fmt.Sprintf("q%d", i), uint64(100+i), 400))
		if code == http.StatusServiceUnavailable {
			refused++
		} else if code != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, code)
		}
	}
	if refused == 0 {
		t.Error("queue of depth 1 accepted 6 long jobs without shedding")
	}
}

func TestHealthAndListing(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1})
	if data, code := get(t, ts, "/healthz"); code != http.StatusOK || !bytes.Contains(data, []byte("ok")) {
		t.Fatalf("healthz: %d %s", code, data)
	}
	j, code := submit(t, ts, torusJob("listed", 5, 3))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitDone(t, ts, j.ID)
	data, code := get(t, ts, "/jobs")
	if code != http.StatusOK {
		t.Fatalf("/jobs: %d", code)
	}
	var list struct {
		Jobs []jobResp `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].Name != "listed" {
		t.Errorf("listing = %+v", list)
	}
}

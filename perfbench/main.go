// Command perfbench is the workbench's benchmark. It runs one named
// workload through the public machine API (machine.New, Run, RunProgram)
// repeatedly for a fixed wall-clock budget, checks every simulated result,
// and prints each metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 14, "failed": 0, "metrics": {"slowdown_1ghz": {"value": 171.2, "unit": "ns/cycle"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones and writes a CPU profile
// and a Perfetto-loadable span file under .bench_out. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload detailed-jacobi --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeed is the seed at which digests.json pins every workload's
// simulated result.
const defaultSeed = 1

// outDir receives the result, profile and span files.
const outDir = ".bench_out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: detailed-jacobi, sharded-jacobi, task-random or smp-coherence")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the model's seeds are derived from it")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b, err := newBench(w, *seed, *traced == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *traced))
	if *traced == 1 {
		err = b.measureLayers(budget, base+".spans.json", base+".cpu.pprof")
	} else {
		err = b.measureEndToEnd(budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	host := hostStamp()
	if err := writeResult(base+".result.json", host, b.rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, host, b.rep)
	return 0
}

// host identifies the machine and build a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostStamp() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+modified"
				}
			}
		}
	}
	return h
}

// failedFrac is the share of attempted runs that errored or failed a check.
func (r *report) failedFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// printReport writes the human-readable lines and, last, the JSON result.
func printReport(w io.Writer, h host, r *report) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%t\n", r.workload, r.seed, r.traced)
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
	fmt.Fprintf(w, "digest: %s\n", r.digest)
	for _, m := range r.metrics {
		n := len(r.samples[m.Name])
		if n > 0 {
			fmt.Fprintf(w, "%-26s %14.6g %-9s (median of %d)\n", m.Name, m.Value, m.Unit, n)
		} else {
			fmt.Fprintf(w, "%-26s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "%-26s %14.6g %-9s (%d of %d runs)\n", "failed_frac", r.failedFrac(), "frac", r.failed, r.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// writeResult records the host stamp, the digest, every metric and the
// per-run samples behind each median.
func writeResult(path string, h host, r *report) error {
	data, err := json.MarshalIndent(struct {
		Workload  string               `json:"workload"`
		Seed      uint64               `json:"seed"`
		Traced    bool                 `json:"traced"`
		Host      host                 `json:"host"`
		Digest    digest               `json:"digest"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   []metric             `json:"metrics"`
		Samples   map[string][]float64 `json:"samples"`
	}{r.workload, r.seed, r.traced, h, r.digest, r.attempted, r.failed, r.metrics, r.samples}, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, append(data, '\n'))
}

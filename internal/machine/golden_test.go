package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/fault"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
	"mermaid/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden: %v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file (%d bytes, want %d)\n--- got ---\n%s", name, len(got), len(want), clip(got))
	}
}

func clip(b []byte) []byte {
	if len(b) > 4000 {
		return b[:4000]
	}
	return b
}

// goldenRun is one instrumented run's three artifacts: the rendered report
// (with the probe registry dump), and, when requested, the timeline and the
// bottleneck report as JSON.
type goldenRun struct {
	report, timeline, bottleneck []byte
}

// runGolden builds cfg with a probe (and optionally a timeline and the
// bottleneck collector) and runs it through run.
func runGolden(t *testing.T, cfg Config, instrument bool, run func(m *Machine) (*Result, error)) goldenRun {
	t.Helper()
	pb := probe.New(probe.Config{Timeline: instrument})
	var col *analysis.Collector
	if instrument {
		col = analysis.New()
	}
	env := sim.Env{Kernel: pearl.NewKernel(), RNG: pearl.NewRNG(cfg.Seed), Probe: pb, Collect: col}
	m, err := Build(env, cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := run(m)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var out goldenRun
	var b bytes.Buffer
	if err := stats.RenderSet(&b, res.Stats); err != nil {
		t.Fatal(err)
	}
	out.report = b.Bytes()
	if instrument {
		var tl, bn bytes.Buffer
		if err := pb.Timeline().WriteJSON(&tl); err != nil {
			t.Fatal(err)
		}
		if err := res.Analysis.WriteJSON(&bn); err != nil {
			t.Fatal(err)
		}
		out.timeline, out.bottleneck = tl.Bytes(), bn.Bytes()
	}
	return out
}

// checkGoldenRun compares every artifact of r against testdata/<name>.*.
// Detailed timelines run to hundreds of kilobytes of CPU and cache spans, so
// with hashTimeline only their SHA-256 is pinned.
func checkGoldenRun(t *testing.T, name string, r goldenRun, hashTimeline bool) {
	t.Helper()
	checkGolden(t, name+".report.txt", r.report)
	if r.timeline == nil {
		return
	}
	if hashTimeline {
		sum := sha256.Sum256(r.timeline)
		checkGolden(t, name+".timeline.sha256", []byte(hex.EncodeToString(sum[:])+"\n"))
	} else {
		checkGolden(t, name+".timeline.json", r.timeline)
	}
	checkGolden(t, name+".bottleneck.json", r.bottleneck)
}

// checkEngineIdentity pins the report of one task-level machine and workload,
// registry dump included, as testdata/identity-<name>.report.txt. The files
// were produced by the process-per-node engine the fabric replaced, so each
// test checks that the fabric still reproduces it byte for byte.
func checkEngineIdentity(t *testing.T, name string, cfg Config, desc stochastic.Desc) {
	t.Helper()
	r := runGolden(t, cfg, false, func(m *Machine) (*Result, error) { return m.RunStochastic(desc) })
	checkGolden(t, "identity-"+name+".report.txt", r.report)
}

func taskDesc(nodes int, seed uint64, phases ...stochastic.Phase) stochastic.Desc {
	return stochastic.Desc{
		Name: "engine-identity", Nodes: nodes, Level: stochastic.TaskLevel,
		Seed: seed, Iterations: 6, Phases: phases,
	}
}

func TestCompactEngineByteIdenticalSAF(t *testing.T) {
	// Store-and-forward, synchronous rendezvous traffic with load imbalance
	// and size jitter — the transputer-style machine.
	cfg := T805GridTaskLevel(4, 4)
	cfg.Seed = 42
	checkEngineIdentity(t, "saf", cfg, taskDesc(16, 11, stochastic.Phase{
		Duration: 2500, CV: 0.4,
		Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024, Jitter: true},
	}))
}

func TestCompactEngineByteIdenticalVCTValiant(t *testing.T) {
	// Virtual cut-through with Valiant routing: the random intermediate
	// draws must land in the same RNG-stream order on both engines.
	cfg := GenericTaskMachine(topology.Config{Kind: topology.Torus2D, DimX: 4, DimY: 4}, 16, router.VirtualCutThrough)
	cfg.Network.Router.Routing = router.Valiant
	cfg.Seed = 7
	checkEngineIdentity(t, "vct-valiant", cfg, taskDesc(16, 3, stochastic.Phase{
		Duration: 1200, CV: 0.2,
		Comm: stochastic.Comm{Pattern: stochastic.RandomPairs, Bytes: 2048},
	}))
}

func TestCompactEngineByteIdenticalWormholeTorus3D(t *testing.T) {
	// Wormhole switching on a 3-D torus: multi-channel worms, dateline
	// virtual-channel switching and async (arecv/waitrecv) completion.
	cfg := GenericTaskMachine(topology.Config{Kind: topology.Torus3D, DimX: 3, DimY: 3, DimZ: 3}, 27, router.Wormhole)
	cfg.Seed = 5
	checkEngineIdentity(t, "wormhole-torus3d", cfg, taskDesc(27, 9, stochastic.Phase{
		Duration: 2000, CV: 0.3,
		Comm: stochastic.Comm{Pattern: stochastic.Exchange, Bytes: 512, Async: true},
	}, stochastic.Phase{
		Duration: 800,
		Comm:     stochastic.Comm{Pattern: stochastic.AllToAll, Bytes: 128},
	}))
}

func TestCompactEngineByteIdenticalAdaptiveFatTree(t *testing.T) {
	// Adaptive routing on a fat-tree: port choice depends on instantaneous
	// channel load, so any event-order divergence shows up as a different
	// path mix.
	// 16 hosts plus 4+4 switches: fat-tree switches are addressable nodes.
	cfg := GenericTaskMachine(topology.Config{Kind: topology.FatTree, Arity: 4, Levels: 2}, 24, router.VirtualCutThrough)
	cfg.Network.Router.Routing = router.Adaptive
	cfg.Seed = 13
	checkEngineIdentity(t, "adaptive-fattree", cfg, taskDesc(24, 21, stochastic.Phase{
		Duration: 900, CV: 0.5,
		Comm: stochastic.Comm{Pattern: stochastic.Hotspot, Bytes: 4096, Jitter: true},
	}))
}

func TestCompactEngineByteIdenticalDragonfly(t *testing.T) {
	cfg := GenericTaskMachine(topology.Config{Kind: topology.Dragonfly, Routers: 2, Globals: 2, Groups: 5}, 10, router.Wormhole)
	cfg.Seed = 23
	checkEngineIdentity(t, "dragonfly", cfg, taskDesc(10, 31, stochastic.Phase{
		Duration: 1500, CV: 0.3,
		Comm: stochastic.Comm{Pattern: stochastic.AllToAll, Bytes: 768},
	}))
}

func TestCompactEngineByteIdenticalUnderFaults(t *testing.T) {
	// Link down-windows, packet noise and retransmission: the lazy re-path
	// table, per-hop fate draws and backoff timers must fire identically.
	cfg := T805GridTaskLevel(3, 3)
	cfg.Seed = 99
	cfg.Faults = &fault.Schedule{
		Links: []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 5_000, To: 400_000}}},
		Noise: []fault.LinkNoise{{A: -1, B: -1, Drop: 0.02}},
		Retrans: fault.Retrans{
			Timeout:    300,
			Backoff:    2,
			MaxRetries: 12,
		},
	}
	checkEngineIdentity(t, "faults", cfg, taskDesc(9, 17, stochastic.Phase{
		Duration: 2000, CV: 0.4,
		Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024, Jitter: true},
	}))
}

// TestConfigRejectsEngineKey: the "engine" key chose between two network
// engines that are now one fabric. A file that still names it fails the
// unknown-field check instead of being silently accepted.
func TestConfigRejectsEngineKey(t *testing.T) {
	cfg := T805GridTaskLevel(2, 2)
	cfg.Version = ConfigVersion
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseConfig(data); err != nil {
		t.Fatalf("config without engine key: %v", err)
	}
	withEngine := strings.Replace(string(data), `{`, `{"engine":"compact",`, 1)
	_, err = ParseConfig([]byte(withEngine))
	if err == nil || !strings.Contains(err.Error(), `unknown field "engine"`) {
		t.Fatalf("config naming engine: err = %v, want an unknown-field error", err)
	}
}

// TestGoldenTaskT805Instrumented pins a task-level run with the timeline and
// the bottleneck collector attached: link tracks and packet spans, CPU and
// link/router rows, and the blocked-interval table.
func TestGoldenTaskT805Instrumented(t *testing.T) {
	cfg := T805GridTaskLevel(4, 4)
	cfg.Seed = 3
	desc := taskDesc(16, 5, stochastic.Phase{
		Duration: 1500, CV: 0.3,
		Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 512, Jitter: true},
	}, stochastic.Phase{
		Duration: 600,
		Comm:     stochastic.Comm{Pattern: stochastic.Exchange, Bytes: 256, Async: true},
	})
	desc.Iterations = 3
	r := runGolden(t, cfg, true, func(m *Machine) (*Result, error) { return m.RunStochastic(desc) })
	checkGoldenRun(t, "task-t805-4x4", r, false)
}

// TestGoldenDetailed pins detailed machines whose node interfaces run on
// virtual cut-through and wormhole fabrics, and the DSM layer.
func TestGoldenDetailed(t *testing.T) {
	vct := T805Grid(2, 2)
	vct.Network.Router.Switching = router.VirtualCutThrough
	vct.Seed = 9
	worm := HybridCluster(2, 2, 1)
	worm.Seed = 4
	dsmCfg := DSMCluster(2, 2)
	dsmCfg.Seed = 2
	for _, tc := range []struct {
		name string
		cfg  Config
		run  func(m *Machine) (*Result, error)
	}{
		{"detailed-vct", vct, func(m *Machine) (*Result, error) { return m.RunProgram(workload.Jacobi1D(4, 64, 3)) }},
		{"detailed-wormhole", worm, func(m *Machine) (*Result, error) { return m.RunProgram(workload.Jacobi1D(4, 64, 3)) }},
		{"jacobi-dsm", dsmCfg, func(m *Machine) (*Result, error) { return m.RunProgram(workload.JacobiDSM(4, 64, 2)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGoldenRun(t, tc.name, runGolden(t, tc.cfg, true, tc.run), true)
		})
	}
}

// TestInstrumentationDoesNotPerturb: attaching an observer must not change
// a run. The observers are the timeline with the bottleneck collector, and
// three readers on the kernel's sampling hook: registry sampling (-metrics),
// the run-time monitor series (-monitor) and a live analysis scope
// (-monitor-addr, mermaidd). Cycles, events and the rendered report (less
// the probe registry, present only with a probe) are compared with a plain
// run.
func TestInstrumentationDoesNotPerturb(t *testing.T) {
	task := T805GridTaskLevel(3, 3)
	task.Seed = 8
	desc := taskDesc(9, 2, stochastic.Phase{
		Duration: 900, CV: 0.4,
		Comm: stochastic.Comm{Pattern: stochastic.RandomPairs, Bytes: 700, Jitter: true},
	})
	detailed := T805Grid(3, 3)
	detailed.Seed = 6
	// A sampling interval that does not divide either run's length, so the
	// boundary ticks fall between events and the end-of-run sample is one
	// more tick.
	const every pearl.Time = 997

	// An instrument prepares the environment, attaches its observer to the
	// built machine, and reports whether the observer recorded the run.
	type instrument struct {
		name    string
		prepare func(env *sim.Env)
		attach  func(t *testing.T, env sim.Env, m *Machine) (recorded func(*Result) bool)
	}
	withRegistry := func(env *sim.Env) { env.Probe = probe.New(probe.Config{}) }
	sample := func(t *testing.T, m *Machine, fn func(pearl.Time)) {
		if err := m.Kernel().Sample(every, fn); err != nil {
			t.Fatal(err)
		}
	}
	instruments := []instrument{
		{"timeline+collector",
			func(env *sim.Env) {
				env.Probe = probe.New(probe.Config{Timeline: true})
				env.Collect = analysis.New()
			},
			func(t *testing.T, env sim.Env, m *Machine) func(*Result) bool {
				return func(res *Result) bool { return res.Analysis != nil && env.Timeline().Events() > 0 }
			}},
		{"registry-sampling", withRegistry,
			func(t *testing.T, env sim.Env, m *Machine) func(*Result) bool {
				reg := env.Registry()
				sample(t, m, reg.Sample)
				return func(res *Result) bool {
					s := reg.Lookup("kernel.events").Series
					return s.Len() > 1 && s.T[s.Len()-1] == int64(res.Cycles)
				}
			}},
		{"run-series", nil,
			func(t *testing.T, env sim.Env, m *Machine) func(*Result) bool {
				rs := NewRunSeries(m)
				sample(t, m, rs.Sample)
				return func(res *Result) bool {
					return rs.Events.Len() > 1 && rs.Events.V[rs.Events.Len()-1] == float64(res.Events)
				}
			}},
		{"scope", withRegistry,
			func(t *testing.T, env sim.Env, m *Machine) func(*Result) bool {
				scope := analysis.NewScope()
				k, reg := m.Kernel(), env.Registry()
				var last pearl.Time
				sample(t, m, func(at pearl.Time) { scope.Sample(k, reg); last = at })
				return func(res *Result) bool { return last == res.Cycles }
			}},
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		run  func(m *Machine) (*Result, error)
	}{
		{"task", task, func(m *Machine) (*Result, error) { return m.RunStochastic(desc) }},
		{"detailed", detailed, func(m *Machine) (*Result, error) { return m.RunProgram(workload.Jacobi1D(9, 90, 2)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(t *testing.T, in *instrument) (*Result, string) {
				env := sim.NewEnv(tc.cfg.Seed, nil)
				if in != nil && in.prepare != nil {
					in.prepare(&env)
				}
				m, err := Build(env, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				var recorded func(*Result) bool
				if in != nil {
					recorded = in.attach(t, env, m)
				}
				res, err := tc.run(m)
				if err != nil {
					t.Fatal(err)
				}
				if recorded != nil && !recorded(res) {
					t.Fatal("instrumented run recorded nothing")
				}
				kept := res.Stats.Subsets[:0:0]
				for _, s := range res.Stats.Subsets {
					if s.Name != "registry" {
						kept = append(kept, s)
					}
				}
				res.Stats.Subsets = kept
				var b bytes.Buffer
				if err := stats.RenderSet(&b, res.Stats); err != nil {
					t.Fatal(err)
				}
				return res, b.String()
			}
			off, offReport := run(t, nil)
			if off.Cycles%every == 0 {
				t.Fatalf("the sampling interval %d divides the run length %d", every, off.Cycles)
			}
			for i := range instruments {
				in := &instruments[i]
				t.Run(in.name, func(t *testing.T) {
					on, onReport := run(t, in)
					if on.Cycles != off.Cycles || on.Events != off.Events {
						t.Errorf("instrumented run: %d cycles, %d events; plain run: %d cycles, %d events",
							on.Cycles, on.Events, off.Cycles, off.Events)
					}
					if onReport != offReport {
						t.Errorf("instrumentation changed the report\n--- plain ---\n%s\n--- instrumented ---\n%s", offReport, onReport)
					}
				})
			}
		})
	}
}

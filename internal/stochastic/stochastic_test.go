package stochastic

import (
	"testing"
	"testing/quick"

	"mermaid/internal/network"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/topology"
)

func simpleDesc(nodes int, level Level, pattern PatternKind) Desc {
	return Desc{
		Name:       "test",
		Nodes:      nodes,
		Level:      level,
		Seed:       42,
		Iterations: 2,
		Phases: []Phase{{
			Name:         "main",
			Instructions: 200,
			Duration:     1000,
			Comm:         Comm{Pattern: pattern, Bytes: 256},
		}},
	}
}

func TestValidate(t *testing.T) {
	good := simpleDesc(4, TaskLevel, NearestNeighbor)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Desc{
		{Nodes: 0, Iterations: 1, Phases: []Phase{{}}},
		{Nodes: 2, Iterations: 0, Phases: []Phase{{}}},
		{Nodes: 2, Iterations: 1},
		{Nodes: 2, Iterations: 1, Phases: []Phase{{Comm: Comm{Pattern: "bogus", Bytes: 1}}}},
		{Nodes: 2, Iterations: 1, Phases: []Phase{{Comm: Comm{Pattern: AllToAll}}}}, // zero bytes
		{Nodes: 2, Iterations: 1, Phases: []Phase{{CV: -1}}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("desc %d: expected error", i)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	d := simpleDesc(4, InstructionLevel, NearestNeighbor)
	a, err := Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(d)
	for n := range a {
		if len(a[n]) != len(b[n]) {
			t.Fatalf("node %d lengths differ", n)
		}
		for i := range a[n] {
			if a[n][i] != b[n][i] {
				t.Fatalf("node %d op %d differs", n, i)
			}
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	d := simpleDesc(2, InstructionLevel, None)
	a, _ := Generate(d)
	d.Seed = 43
	b, _ := Generate(d)
	same := true
	if len(a[0]) != len(b[0]) {
		same = false
	} else {
		for i := range a[0] {
			if a[0][i] != b[0][i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// sendRecvBalance verifies every send has exactly one matching recv.
func sendRecvBalance(t *testing.T, traces [][]ops.Op) {
	t.Helper()
	type key struct {
		from, to int32
		tag      uint32
	}
	sends := map[key]int{}
	recvs := map[key]int{}
	for nodeID, tr := range traces {
		for _, o := range tr {
			switch o.Kind {
			case ops.Send, ops.ASend:
				sends[key{int32(nodeID), o.Peer, o.Tag}]++
			case ops.Recv, ops.ARecv:
				recvs[key{o.Peer, int32(nodeID), o.Tag}]++
			}
		}
	}
	if len(sends) == 0 {
		t.Fatal("no sends generated")
	}
	for k, n := range sends {
		if recvs[k] != n {
			t.Fatalf("unbalanced %v: %d sends, %d recvs", k, n, recvs[k])
		}
	}
	for k, n := range recvs {
		if sends[k] != n {
			t.Fatalf("recv without send %v (%d)", k, n)
		}
	}
}

func TestPatternsBalanced(t *testing.T) {
	for _, pat := range []PatternKind{NearestNeighbor, Exchange, AllToAll, Hotspot, RandomPairs} {
		for _, nodes := range []int{2, 3, 4, 7, 8} {
			d := simpleDesc(nodes, TaskLevel, pat)
			traces, err := Generate(d)
			if err != nil {
				t.Fatalf("%s/%d: %v", pat, nodes, err)
			}
			sendRecvBalance(t, traces)
		}
	}
}

func TestAllToAllCoversAllPairs(t *testing.T) {
	d := simpleDesc(5, TaskLevel, AllToAll)
	d.Iterations = 1
	traces, _ := Generate(d)
	pairs := map[[2]int]bool{}
	for nodeID, tr := range traces {
		for _, o := range tr {
			if o.Kind == ops.Send {
				pairs[[2]int{nodeID, int(o.Peer)}] = true
			}
		}
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j && !pairs[[2]int{i, j}] {
				t.Fatalf("pair %d->%d missing", i, j)
			}
		}
	}
}

func TestInstructionLevelContent(t *testing.T) {
	d := simpleDesc(2, InstructionLevel, None)
	d.Phases[0].Instructions = 1000
	traces, _ := Generate(d)
	var fetches, mem, arith int
	for _, o := range traces[0] {
		switch {
		case o.Kind == ops.IFetch:
			fetches++
		case o.Kind.IsMemoryAccess():
			mem++
		case o.Kind.IsArithmetic():
			arith++
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("invalid op: %v", err)
		}
	}
	if fetches != 2000 { // 1000 instructions x 2 iterations
		t.Fatalf("fetches = %d, want 2000", fetches)
	}
	if mem == 0 || arith == 0 {
		t.Fatalf("mix degenerate: mem=%d arith=%d", mem, arith)
	}
	// Default mix: ~35%% memory ops.
	frac := float64(mem) / 2000
	if frac < 0.25 || frac > 0.45 {
		t.Fatalf("memory fraction = %v, want ~0.35", frac)
	}
}

func TestStridedMemoryModel(t *testing.T) {
	d := simpleDesc(1, InstructionLevel, None)
	d.Phases[0].Mix = Mix{Load: 1}
	d.Phases[0].Mem = MemModel{Base: 0x1000, WorkingSet: 1024, Stride: 8, Access: ops.MemDouble}
	d.Iterations = 1
	d.Phases[0].Instructions = 10
	traces, _ := Generate(d)
	var addrs []uint64
	for _, o := range traces[0] {
		if o.Kind == ops.Load {
			addrs = append(addrs, o.Addr)
		}
	}
	if len(addrs) != 10 {
		t.Fatalf("loads = %d", len(addrs))
	}
	for i := 1; i < len(addrs); i++ {
		if addrs[i] != addrs[i-1]+8 {
			t.Fatalf("stride broken at %d: %#x -> %#x", i, addrs[i-1], addrs[i])
		}
	}
}

func TestLoadImbalanceCV(t *testing.T) {
	d := simpleDesc(16, TaskLevel, None)
	d.Phases[0].CV = 0.5
	d.Iterations = 1
	traces, _ := Generate(d)
	distinct := map[int64]bool{}
	for _, tr := range traces {
		for _, o := range tr {
			if o.Kind == ops.Compute {
				distinct[o.Dur] = true
			}
		}
	}
	if len(distinct) < 8 {
		t.Fatalf("CV=0.5 produced only %d distinct durations", len(distinct))
	}
	// CV=0 is deterministic.
	d.Phases[0].CV = 0
	traces, _ = Generate(d)
	for _, tr := range traces {
		for _, o := range tr {
			if o.Kind == ops.Compute && o.Dur != 1000 {
				t.Fatalf("CV=0 duration = %d, want 1000", o.Dur)
			}
		}
	}
}

// All sync patterns must simulate to completion on a real network
// (deadlock-freedom of the generated rendezvous ordering).
func TestSyncPatternsRunToCompletion(t *testing.T) {
	for _, pat := range []PatternKind{NearestNeighbor, Exchange, AllToAll, Hotspot, RandomPairs} {
		for _, nodes := range []int{2, 3, 5, 8} {
			pat, nodes := pat, nodes
			t.Run(string(pat), func(t *testing.T) {
				d := simpleDesc(nodes, TaskLevel, pat)
				srcs, err := Sources(d)
				if err != nil {
					t.Fatal(err)
				}
				k := pearl.NewKernel()
				net, err := network.New(sim.Env{Kernel: k}, network.Config{
					Topology: topology.Config{Kind: topology.Ring, Nodes: nodes},
					Router:   router.Config{Switching: router.StoreAndForward, RoutingDelay: 1, MaxPacket: 1024},
					Link:     network.LinkConfig{BytesPerCycle: 4, PropDelay: 1},
					AckBytes: 4,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < nodes; i++ {
					net.Attach(i, srcs[i])
				}
				k.Run()
				if err := net.Err(); err != nil {
					t.Fatal(err)
				}
				if !net.AllDone() {
					t.Fatalf("deadlocked (pattern %s): %v", pat, net.Blocked())
				}
			})
		}
	}
}

func TestAsyncPattern(t *testing.T) {
	d := simpleDesc(4, TaskLevel, AllToAll)
	d.Phases[0].Comm.Async = true
	traces, err := Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	var asends, arecvs, waits int
	for _, tr := range traces {
		for _, o := range tr {
			switch o.Kind {
			case ops.ASend:
				asends++
			case ops.ARecv:
				arecvs++
			case ops.WaitRecv:
				waits++
			}
		}
	}
	if asends == 0 || arecvs != asends || waits != arecvs {
		t.Fatalf("asends=%d arecvs=%d waits=%d", asends, arecvs, waits)
	}
}

// Property: generation never produces invalid operations and always balances
// sends and recvs, across random node counts, patterns and seeds.
func TestGenerateProperty(t *testing.T) {
	pats := []PatternKind{None, NearestNeighbor, Exchange, AllToAll, Hotspot, RandomPairs}
	f := func(seed uint64, n8, p8, async8 uint8) bool {
		nodes := int(n8%7) + 2
		d := Desc{
			Nodes: nodes, Level: TaskLevel, Seed: seed, Iterations: 2,
			Phases: []Phase{{
				Duration: 100,
				CV:       0.3,
				Comm:     Comm{Pattern: pats[int(p8)%len(pats)], Bytes: 64, Async: async8%2 == 0, Jitter: true},
			}},
		}
		traces, err := Generate(d)
		if err != nil {
			return false
		}
		for _, tr := range traces {
			for _, o := range tr {
				if o.Validate() != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

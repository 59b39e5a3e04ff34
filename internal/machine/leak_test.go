package machine

import (
	"runtime"
	"testing"
	"time"

	"mermaid/internal/ops"
	"mermaid/internal/trace"
	"mermaid/internal/workload"
)

// TestRunReleasesParkedProcesses checks that a finished run leaves no
// process behind: the DSM managers of a successful run and every node of a
// deadlocked one stay parked when the kernel runs dry, and Run must stop
// them so neither their coroutines nor the machines they reference outlive
// the run.
func TestRunReleasesParkedProcesses(t *testing.T) {
	heap0 := liveHeap()
	goroutines0 := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		m, err := New(DSMCluster(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunProgram(workload.JacobiDSM(4, 64, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		cfg := T805GridTaskLevel(2, 2)
		cfg.Shards = i % 2 * 2 // the sharded engine's kernels too
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srcs := make([]trace.Source, 4)
		for j := range srcs {
			srcs[j] = trace.FromOps([]ops.Op{ops.NewRecv(ops.AnyPeer, 0)}) // never sent
		}
		if _, err := m.Run(srcs); err == nil {
			t.Fatal("RecvAny with no sender did not deadlock")
		}
	}
	// Stopped coroutines and reaped trace threads exit asynchronously. The
	// slack is a few goroutines; a leak is four per run.
	const slack = 4
	goroutines := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); goroutines > goroutines0+slack && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		goroutines = runtime.NumGoroutine()
	}
	heap := liveHeap()
	t.Logf("goroutines %d -> %d, live heap %.1f -> %.1f MiB", goroutines0, goroutines,
		float64(heap0)/(1<<20), float64(heap)/(1<<20))
	if goroutines > goroutines0+slack {
		t.Errorf("%d goroutines after the runs, %d before", goroutines, goroutines0)
	}
	if heap > heap0+2<<20 {
		t.Error("live heap grew by more than 2 MiB")
	}
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

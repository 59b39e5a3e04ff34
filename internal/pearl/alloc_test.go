package pearl

import "testing"

// The event kernel must not allocate in steady state: once the slot slab and
// the heap/run-queue arrays have grown to the working-set size, scheduling
// and firing events reuses slots through the free list. These tests pin that
// property so a regression fails CI rather than showing up as GC pressure in
// long simulations.

func TestAllocFreeScheduleStep(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := NewKernel()
	fn := func() {}
	// Warm the slab: first schedules grow slots/heap once.
	for i := 0; i < 64; i++ {
		k.After(1, fn)
		k.step()
	}
	if got := testing.AllocsPerRun(200, func() {
		k.After(1, fn)
		k.step()
	}); got != 0 {
		t.Errorf("After(1)+step allocates %v times per op; want 0", got)
	}
	// Zero-delay events take the FIFO run queue, bypassing the heap.
	if got := testing.AllocsPerRun(200, func() {
		k.After(0, fn)
		k.step()
	}); got != 0 {
		t.Errorf("After(0)+step allocates %v times per op; want 0", got)
	}
}

func TestAllocFreeTimerCancel(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := NewKernel()
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.After(1, fn).Cancel()
		k.step()
	}
	if got := testing.AllocsPerRun(200, func() {
		tm := k.After(1, fn)
		tm.Cancel()
		k.After(1, fn)
		k.step()
	}); got != 0 {
		t.Errorf("schedule+cancel allocates %v times per op; want 0", got)
	}
}

func TestAllocFreeShardRunDisabled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// With telemetry and the span hook both off, the windowed loop must not
	// touch the host clock or allocate: observation is strictly opt-in.
	g := NewShardGroup(1, 8)
	k := g.Kernel(0)
	fn := func() {}
	for i := 0; i < 8; i++ {
		k.After(1, fn)
		g.Run()
	}
	if got := testing.AllocsPerRun(100, func() {
		k.After(1, fn)
		g.Run()
	}); got != 0 {
		t.Errorf("unobserved single-shard Run allocates %v times per window; want 0", got)
	}
}

func TestAllocFreeLogHistObserve(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var h LogHist
	var v uint64
	if got := testing.AllocsPerRun(200, func() {
		v++
		h.Observe(v)
	}); got != 0 {
		t.Errorf("LogHist.Observe allocates %v times per op; want 0", got)
	}
}

func TestAllocFreeHold(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := NewKernel()
	k.Spawn("holder", func(p *Process) {
		for {
			p.Hold(1)
		}
	})
	k.RunUntil(64) // warm up the slab and the goroutine handoff path
	now := Time(64)
	if got := testing.AllocsPerRun(100, func() {
		now += 8
		k.RunUntil(now)
	}); got != 0 {
		t.Errorf("Hold loop allocates %v times per RunUntil slice; want 0", got)
	}
}

// Without a sampler the dispatch loop and Run's end-of-run check must stay
// allocation-free.
func TestAllocFreeUnsampledRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := NewKernel()
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.After(1, fn)
		k.Run()
	}
	if got := testing.AllocsPerRun(200, func() {
		k.After(1, fn)
		k.Run()
	}); got != 0 {
		t.Errorf("unsampled After(1)+Run allocates %v times per op; want 0", got)
	}
}

// A sampler tick — a boundary passed in dispatch plus the end-of-run sample —
// must not allocate in the kernel.
func TestAllocFreeSamplerTick(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := NewKernel()
	ticks := 0
	if err := k.Sample(1, func(Time) { ticks++ }); err != nil {
		t.Fatal(err)
	}
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.After(2, fn)
		k.Run()
	}
	if got := testing.AllocsPerRun(200, func() {
		k.After(2, fn)
		k.Run()
	}); got != 0 {
		t.Errorf("sampled After(2)+Run allocates %v times per op; want 0", got)
	}
	if ticks == 0 {
		t.Fatal("sampler never ran")
	}
}

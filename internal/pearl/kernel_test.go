package pearl

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(10, func() { got = append(got, 1) })
	k.At(5, func() { got = append(got, 0) })
	k.At(10, func() { got = append(got, 2) }) // same time: schedule order
	k.At(20, func() { got = append(got, 3) })
	end := k.Run()
	if end != 20 {
		t.Fatalf("final time = %d, want 20", end)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEventsAtSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(7, func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], i)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := NewKernel()
	var at Time
	k.At(100, func() {
		k.After(50, func() { at = k.Now() })
	})
	k.Run()
	if at != 150 {
		t.Fatalf("fired at %d, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		k.At(50, func() {})
	})
	k.Run()
}

func TestTimerCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.At(10, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Cancel() {
		t.Fatal("cancel should succeed")
	}
	if tm.Cancel() {
		t.Fatal("second cancel should report false")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestTimerCancelAmongOthers(t *testing.T) {
	k := NewKernel()
	var got []int
	var timers []Timer
	for i := 0; i < 10; i++ {
		i := i
		timers = append(timers, k.At(Time(i), func() { got = append(got, i) }))
	}
	// Cancel the odd ones.
	for i := 1; i < 10; i += 2 {
		timers[i].Cancel()
	}
	k.Run()
	if len(got) != 5 {
		t.Fatalf("got %v, want 5 even events", got)
	}
	for _, v := range got {
		if v%2 != 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, tt := range []Time{5, 10, 15, 20} {
		tt := tt
		k.At(tt, func() { fired = append(fired, tt) })
	}
	k.RunUntil(12)
	if k.Now() != 12 {
		t.Fatalf("Now = %d, want 12", k.Now())
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want [5 10]", fired)
	}
	k.Run()
	if len(fired) != 4 || k.Now() != 20 {
		t.Fatalf("after Run: fired = %v, now = %d", fired, k.Now())
	}
}

func TestRunUntilEmptyScheduleAdvancesClock(t *testing.T) {
	k := NewKernel()
	k.RunUntil(42)
	if k.Now() != 42 {
		t.Fatalf("Now = %d, want 42", k.Now())
	}
}

// Regression: RunUntil used to advance the clock to t after Stop() drained
// the last event, inconsistent with Run's stop semantics.
func TestRunUntilStoppedDoesNotAdvanceClock(t *testing.T) {
	k := NewKernel()
	k.At(5, func() { k.Stop() })
	if end := k.RunUntil(100); end != 5 {
		t.Fatalf("RunUntil returned %d, want 5 (stopped)", end)
	}
	if k.Now() != 5 {
		t.Fatalf("Now = %d after stopped RunUntil, want 5", k.Now())
	}
	// Resuming with an empty schedule behaves as before: the clock advances
	// to the horizon.
	if end := k.RunUntil(100); end != 100 {
		t.Fatalf("resumed RunUntil returned %d, want 100", end)
	}
}

func TestRunUntilStoppedWithPendingEvents(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(5, func() { fired++; k.Stop() })
	k.At(7, func() { fired++ })
	if end := k.RunUntil(100); end != 5 || fired != 1 {
		t.Fatalf("RunUntil = %d, fired = %d; want 5, 1", end, fired)
	}
	k.Run()
	if fired != 2 || k.Now() != 7 {
		t.Fatalf("after resume: fired = %d, now = %d", fired, k.Now())
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	n := 0
	for i := 1; i <= 10; i++ {
		k.At(Time(i), func() {
			n++
			if n == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	// Run again resumes.
	k.Run()
	if n != 10 {
		t.Fatalf("executed %d events after resume, want 10", n)
	}
}

func TestEventCount(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 17; i++ {
		k.At(Time(i), func() {})
	}
	k.Run()
	if k.EventCount() != 17 {
		t.Fatalf("EventCount = %d, want 17", k.EventCount())
	}
}

// Property: for any set of (time, id) pairs, execution visits them sorted by
// time with ties in insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			i, d := i, d
			k.At(Time(d), func() { got = append(got, rec{Time(d), i}) })
		}
		k.Run()
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilWithProcesses(t *testing.T) {
	k := NewKernel()
	ticks := 0
	k.Spawn("ticker", func(p *Process) {
		for i := 0; i < 10; i++ {
			p.Hold(10)
			ticks++
		}
	})
	k.RunUntil(45)
	if ticks != 4 || k.Now() != 45 {
		t.Fatalf("ticks=%d now=%d, want 4 at 45", ticks, k.Now())
	}
	k.Run()
	if ticks != 10 {
		t.Fatalf("ticks = %d after resume", ticks)
	}
}

func TestStopFromProcess(t *testing.T) {
	k := NewKernel()
	var after bool
	k.Spawn("stopper", func(p *Process) {
		p.Hold(5)
		k.Stop()
		p.Hold(5) // parks; kernel stops before resuming
		after = true
	})
	k.Run()
	if after {
		t.Fatal("process ran past Stop within the same Run")
	}
	k.Run() // resume
	if !after {
		t.Fatal("process did not finish on resumed Run")
	}
}

func TestTerminatedWaiterSkipped(t *testing.T) {
	k := NewKernel()
	r := k.NewResource("r", 1)
	mb := k.NewMailbox("quit")
	// holder keeps the resource; w1 queues then is unblocked via mailbox and
	// terminates while still queued; w2 queues behind it and must be granted.
	k.Spawn("holder", func(p *Process) {
		p.Acquire(r)
		p.Hold(100)
		r.Release()
	})
	granted := false
	k.Spawn("w2", func(p *Process) {
		p.Hold(2)
		p.Acquire(r)
		granted = true
		r.Release()
	})
	k.Run()
	if !granted {
		t.Fatal("waiter behind queue never granted")
	}
	_ = mb
}

func TestDaemonEventFiresAmongRegularWork(t *testing.T) {
	k := NewKernel()
	var got []Time
	k.AtDaemon(10, func() { got = append(got, k.Now()) })
	k.At(20, func() { got = append(got, k.Now()) })
	if end := k.Run(); end != 20 {
		t.Fatalf("run ended at %d, want 20", end)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("fired at %v, want [10 20]", got)
	}
}

func TestDaemonEventDoesNotExtendRun(t *testing.T) {
	k := NewKernel()
	fired := false
	k.AtDaemon(1000, func() { fired = true })
	k.At(20, func() {})
	if end := k.Run(); end != 20 {
		t.Fatalf("run ended at %d, want 20", end)
	}
	if fired {
		t.Fatal("daemon event beyond the workload fired")
	}
	// The daemon is still queued: new work past its time fires it.
	k.At(2000, func() {})
	if end := k.Run(); end != 2000 {
		t.Fatalf("second run ended at %d, want 2000", end)
	}
	if !fired {
		t.Fatal("daemon event not resumed by later work")
	}
}

func TestDaemonChainReArmsWithoutExtendingRun(t *testing.T) {
	// A self-rescheduling daemon chain — the fault-injector shape — fires for
	// every instant covered by real work and goes quiet with it.
	k := NewKernel()
	var fired []Time
	next := Time(0)
	var arm func()
	arm = func() {
		next += 10
		k.AtDaemon(next, func() { fired = append(fired, k.Now()); arm() })
	}
	arm()
	k.At(35, func() {})
	if end := k.Run(); end != 35 {
		t.Fatalf("run ended at %d, want 35", end)
	}
	if len(fired) != 3 || fired[0] != 10 || fired[1] != 20 || fired[2] != 30 {
		t.Fatalf("daemon chain fired at %v, want [10 20 30]", fired)
	}
}

func TestDaemonEventCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.AtDaemon(10, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("cancel should succeed")
	}
	k.At(20, func() {})
	if end := k.Run(); end != 20 {
		t.Fatalf("run ended at %d, want 20", end)
	}
	if fired {
		t.Fatal("cancelled daemon event fired")
	}
}

func TestRunUntilFiresDaemonEvents(t *testing.T) {
	// RunUntil's horizon is the caller's, not the schedule's: daemon events
	// inside it fire like any other.
	k := NewKernel()
	fired := false
	k.AtDaemon(10, func() { fired = true })
	if end := k.RunUntil(100); end != 100 {
		t.Fatalf("run ended at %d, want 100", end)
	}
	if !fired {
		t.Fatal("daemon event within the horizon did not fire")
	}
}

// sampleRecord is one sampler call: the boundary passed, the clock and the
// model state it observed.
type sampleRecord struct {
	at, now Time
	state   int
}

// The sampler runs after every event at or before a boundary and before the
// first event after it, ends with the end-of-run state, and changes neither
// the clock's end point nor the event count.
func TestSampleBoundariesAndEnd(t *testing.T) {
	run := func(sampled bool) (Time, uint64, []sampleRecord) {
		k := NewKernel()
		state := 0
		var got []sampleRecord
		if sampled {
			if err := k.Sample(10, func(at Time) {
				got = append(got, sampleRecord{at, k.Now(), state})
			}); err != nil {
				t.Fatal(err)
			}
		}
		k.At(5, func() { state = 1 })
		k.At(20, func() { state = 2 }) // on a boundary: sampled after it
		k.At(35, func() { state = 3 })
		k.AtDaemon(50, func() { state = 99 }) // left unfired: never sampled
		end := k.Run()
		if k.DaemonEvents() != 0 {
			t.Fatalf("DaemonEvents = %d, want 0", k.DaemonEvents())
		}
		return end, k.EventCount(), got
	}
	plainEnd, plainEvents, _ := run(false)
	end, events, got := run(true)
	if end != plainEnd || events != plainEvents {
		t.Fatalf("sampled run: end %d, %d events; plain: end %d, %d events", end, events, plainEnd, plainEvents)
	}
	want := []sampleRecord{{10, 10, 1}, {20, 20, 2}, {30, 30, 2}, {35, 35, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
}

// A run that ends on a boundary is sampled there once, and a run shorter
// than one interval still gets its end-of-run sample.
func TestSampleEndOnBoundaryAndShortRun(t *testing.T) {
	for _, tc := range []struct {
		every Time
		want  []Time
	}{
		{10, []Time{10, 20, 30}},
		{1000, []Time{30}},
	} {
		k := NewKernel()
		var got []Time
		if err := k.Sample(tc.every, func(at Time) { got = append(got, at) }); err != nil {
			t.Fatal(err)
		}
		k.At(30, func() {})
		k.Run()
		k.Run() // nothing left: the end instant was just sampled
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("every %d: samples at %v, want %v", tc.every, got, tc.want)
		}
	}
}

// RunUntil samples the boundaries its horizon passes, including those with
// no event after them, and ends with a sample at the horizon.
func TestSampleRunUntil(t *testing.T) {
	k := NewKernel()
	var got []Time
	if err := k.Sample(10, func(at Time) { got = append(got, at) }); err != nil {
		t.Fatal(err)
	}
	k.At(12, func() {})
	k.At(100, func() {})
	if end := k.RunUntil(35); end != 35 {
		t.Fatalf("RunUntil ended at %d, want 35", end)
	}
	if want := []Time{10, 20, 30, 35}; !reflect.DeepEqual(got, want) {
		t.Fatalf("samples at %v, want %v", got, want)
	}
	if k.EventCount() != 1 {
		t.Fatalf("EventCount = %d, want 1", k.EventCount())
	}
}

func TestSampleValidation(t *testing.T) {
	k := NewKernel()
	fn := func(Time) {}
	for _, every := range []Time{0, -5} {
		if err := k.Sample(every, fn); err == nil {
			t.Errorf("Sample accepted interval %d", every)
		}
	}
	if err := k.Sample(10, fn); err != nil {
		t.Fatal(err)
	}
	if err := k.Sample(10, fn); err == nil {
		t.Error("Sample attached a second sampler")
	}
}

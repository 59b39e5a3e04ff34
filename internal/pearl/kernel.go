// Package pearl provides the discrete-event simulation kernel that the
// Mermaid architecture models are written in. It is a Go substitute for the
// Pearl object-oriented simulation language used by the original system
// (Muller, "Simulating computer architectures", 1993): simulation models are
// expressed as communicating processes that exchange messages in virtual
// time, with both synchronous (call/reply) and asynchronous message passing.
//
// The kernel is strictly deterministic: events at equal virtual times fire in
// schedule order, and at most one process goroutine runs at any moment. Given
// identical inputs, a simulation produces identical traces and statistics,
// which the trace-validity guarantees of the environment rely on.
//
// The event queue is allocation-free on the steady state: events live in a
// slab of reusable slots addressed by index, ordered by a hand-specialized
// 4-ary heap, with generation-counted Timer handles for cancellation (lazy
// invalidation — a cancelled event stays queued and is discarded unfired when
// it surfaces). Events scheduled for the current instant bypass the heap
// through a FIFO run queue, so zero-delay cascades (mailbox handoffs, bus
// grants) cost no heap reordering at all.
package pearl

import (
	"fmt"
)

// Time is virtual simulation time, measured in cycles of the simulated
// machine's base clock. It is a signed integer so that durations and
// differences are safe to compute; negative absolute times never occur.
type Time int64

// Forever is a virtual time later than any time a simulation can reach.
const Forever Time = 1<<63 - 1

// eventKind discriminates what firing an event slot does.
type eventKind uint8

const (
	// evFree marks a slot on the free list.
	evFree eventKind = iota
	// evCancelled marks a queued slot whose timer was cancelled; it is
	// released unfired when it reaches the front (lazy invalidation).
	evCancelled
	// evFunc runs a callback closure.
	evFunc
	// evHold resumes a process parked in Hold — no closure needed.
	evHold
	// evWake is an idempotent process activation (park/unpark) — no closure
	// needed.
	evWake
	// evDaemon runs a callback closure like evFunc, but the event never keeps
	// the run alive on its own: Run returns once only daemon events remain.
	evDaemon
)

// eventSlot is one entry of the kernel's event slab. Slots are reused through
// a free list; gen increments on every release so stale Timer handles can
// never cancel a recycled slot.
type eventSlot struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among equal times
	fn   func() // evFunc only
	proc *Process
	gen  uint32
	kind eventKind
}

// Timer is a generation-counted handle to a scheduled event. The zero Timer
// is valid and never pending. Timers are plain values: scheduling does not
// allocate.
type Timer struct {
	k   *Kernel
	idx int32
	gen uint32
}

// Cancel invalidates the event. The entry stays queued and is discarded,
// unfired and uncounted, when it surfaces (lazy invalidation — no heap
// removal). Cancelling an already-fired or already-cancelled timer is a
// no-op. It reports whether the event was still pending.
func (t Timer) Cancel() bool {
	if t.k == nil {
		return false
	}
	s := &t.k.slots[t.idx]
	if s.gen != t.gen || s.kind < evFunc {
		return false
	}
	if s.kind == evDaemon {
		t.k.daemons--
	}
	s.kind = evCancelled
	s.fn = nil
	s.proc = nil
	t.k.live--
	return true
}

// Pending reports whether the timer's event has not yet fired or been
// cancelled.
func (t Timer) Pending() bool {
	if t.k == nil {
		return false
	}
	s := &t.k.slots[t.idx]
	return s.gen == t.gen && s.kind >= evFunc
}

// Kernel is a discrete-event simulation engine. The zero value is not usable;
// create kernels with NewKernel.
type Kernel struct {
	now Time
	seq uint64

	slots []eventSlot // slab of event storage, addressed by index
	free  []int32     // released slot indices available for reuse
	heap  []int32     // 4-ary min-heap of slot indices, keyed by (at, seq)

	// runq is the same-timestamp FIFO run queue: events scheduled for the
	// current instant. Because virtual time is monotonic and seq strictly
	// increases, the queue is ordered by (at, seq) by construction, so the
	// front is its minimum and zero-delay cascades bypass heap push/pop.
	runq     []int32
	runqHead int

	live    int // queued events that are not cancelled
	daemons int // live events scheduled with AtDaemon
	procs   []*Process

	// Deferred same-instant work for the windowed (sharded) executor. Post
	// callbacks run once no ordinary event remains at the current instant;
	// Settle callbacks run after the Posts. Neither queue is ordered by seq —
	// deferred work must be order-insensitive by construction (the sharded
	// network uses Post for arrival draining and Settle for link
	// arbitration, both keyed deterministically). Only RunWindow drains
	// these queues; Run and RunUntil predate them and never see any.
	postq      []func()
	postHead   int
	settleq    []func()
	settleHead int

	// current is the process whose goroutine currently has control, or nil
	// when the kernel itself (an event callback) is running.
	current *Process

	eventCount  uint64
	daemonFired uint64 // daemon events actually executed
	stopped     bool

	// tracer, when non-nil, observes process scheduling for the
	// instrumentation layer. The hook sits on the process activation path,
	// not the event loop, so pure-event workloads pay nothing.
	tracer Tracer

	// The virtual-time sampler (see Sample). sampleAt is the next boundary;
	// without a sampler it stays at Forever, so dispatch pays one compare.
	sampleFn    func(at Time)
	sampleEvery Time
	sampleAt    Time
	sampled     Time // last instant passed to sampleFn
}

// Tracer observes process scheduling. ProcessSpan is called when a process
// resumes after blocking: [from, to] is the blocked interval and reason the
// process's block reason ("hold", "receive x", "acquire y"). Implementations
// must not re-enter the kernel.
type Tracer interface {
	ProcessSpan(p *Process, from, to Time, reason string)
}

// SetTracer attaches (or, with nil, detaches) a scheduling tracer.
func (k *Kernel) SetTracer(t Tracer) { k.tracer = t }

// Tracers fans one process-span feed out to several consumers (e.g. the
// timeline recorder and the bottleneck collector observing the same run). It
// implements Tracer itself; attach with SetTracer.
type Tracers []Tracer

// ProcessSpan implements Tracer by forwarding to every member in order.
func (ts Tracers) ProcessSpan(p *Process, from, to Time, reason string) {
	for _, t := range ts {
		t.ProcessSpan(p, from, to, reason)
	}
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{sampleAt: Forever}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// EventCount returns the number of events executed so far; useful as a cheap
// progress and cost metric. Cancelled events are never executed or counted.
func (k *Kernel) EventCount() uint64 { return k.eventCount }

// schedule allocates a slot for an event at absolute time t and queues it.
// The caller guarantees t >= k.now.
func (k *Kernel) schedule(t Time, kind eventKind, fn func(), proc *Process) Timer {
	var idx int32
	if n := len(k.free); n > 0 {
		idx = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.slots = append(k.slots, eventSlot{})
		idx = int32(len(k.slots) - 1)
	}
	s := &k.slots[idx]
	s.at = t
	s.seq = k.seq
	s.fn = fn
	s.proc = proc
	s.kind = kind
	k.seq++
	k.live++
	if t == k.now {
		k.runq = append(k.runq, idx)
	} else {
		k.heapPush(idx)
	}
	return Timer{k: k, idx: idx, gen: s.gen}
}

// release returns a slot to the free list, bumping its generation so stale
// Timer handles become inert.
func (k *Kernel) release(idx int32) {
	s := &k.slots[idx]
	s.fn = nil
	s.proc = nil
	s.kind = evFree
	s.gen++
	k.free = append(k.free, idx)
}

// At schedules fn to run at absolute virtual time t, which must not be in the
// past. It returns a cancellable Timer. On the steady state (slab warm) this
// performs no heap allocation.
func (k *Kernel) At(t Time, fn func()) Timer {
	if t < k.now {
		panic(fmt.Sprintf("pearl: scheduling event at %d, before current time %d", t, k.now))
	}
	return k.schedule(t, evFunc, fn, nil)
}

// After schedules fn to run d cycles from now. Negative d panics.
func (k *Kernel) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("pearl: negative delay %d", d))
	}
	return k.schedule(k.now+d, evFunc, fn, nil)
}

// AtDaemon schedules fn at absolute virtual time t like At, except that the
// event never determines when the simulation ends: it fires in strict
// (time, sequence) order while non-daemon work remains, but Run returns —
// leaving it queued, unfired — once only daemon events are left. The fault
// schedule uses this so a plan that outlives the workload cannot extend the
// run. RunUntil, whose horizon is the caller's and not the schedule's, fires
// daemon events like any other. Daemon events are still counted events, so
// observers that only read state use Sample instead.
func (k *Kernel) AtDaemon(t Time, fn func()) Timer {
	if t < k.now {
		panic(fmt.Sprintf("pearl: scheduling event at %d, before current time %d", t, k.now))
	}
	k.daemons++
	return k.schedule(t, evDaemon, fn, nil)
}

// Sample attaches the kernel's one virtual-time sampler. For every multiple
// b of every that the clock passes, fn(b) runs after the last event at or
// before b and before the first event after it, with Now() reading b; and
// whenever Run or RunUntil returns, fn(Now()) runs once more unless that
// instant was just sampled, so the series always ends with the end-of-run
// state. The hook is not an event: it never enters the queue, is counted in
// neither EventCount nor DaemonEvents, and cannot extend or reorder a run,
// so a sampled simulation produces exactly the results of an unsampled one.
// fn must only read model state; it must not schedule events or re-enter
// the kernel. Sample rejects a non-positive interval and a second sampler.
func (k *Kernel) Sample(every Time, fn func(at Time)) error {
	if every <= 0 {
		return fmt.Errorf("pearl: sampling interval %d", every)
	}
	if k.sampleFn != nil {
		return fmt.Errorf("pearl: kernel already has a sampler")
	}
	k.sampleFn, k.sampleEvery = fn, every
	k.sampleAt = (k.now/every + 1) * every
	k.sampled = -1
	return nil
}

// sampleBefore runs the sampler at every boundary strictly before t. The
// clock reads each boundary while fn runs; the caller moves it on to t.
func (k *Kernel) sampleBefore(t Time) {
	for k.sampleAt < t {
		k.now = k.sampleAt
		k.sampled = k.now
		k.sampleAt += k.sampleEvery
		k.sampleFn(k.now)
	}
}

// sampleEnd takes the end-of-run sample of Run and RunUntil.
func (k *Kernel) sampleEnd() {
	if k.sampleFn != nil && k.sampled != k.now {
		k.sampled = k.now
		k.sampleFn(k.now)
	}
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// less orders queued events by (time, sequence).
func (k *Kernel) less(a, b int32) bool {
	sa, sb := &k.slots[a], &k.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// 4-ary heap: shallower than binary for the same size, so fewer slot-compare
// cache misses per push/pop.
const heapArity = 4

func (k *Kernel) heapPush(idx int32) {
	k.heap = append(k.heap, idx)
	h := k.heap
	i := len(h) - 1
	moving := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !k.less(moving, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = moving
}

func (k *Kernel) heapPop() int32 {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	moving := h[n]
	k.heap = h[:n]
	if n == 0 {
		return top
	}
	h = k.heap
	i := 0
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if k.less(h[c], h[best]) {
				best = c
			}
		}
		if !k.less(h[best], moving) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = moving
	return top
}

// front locates the next event in strict (time, seq) order across the heap
// and the run queue, releasing cancelled entries along the way. It reports
// false when no live events remain. The returned entry is left queued.
func (k *Kernel) front() (idx int32, fromRunq, ok bool) {
	for {
		hasR := k.runqHead < len(k.runq)
		hasH := len(k.heap) > 0
		switch {
		case hasR && hasH:
			if r := k.runq[k.runqHead]; k.less(r, k.heap[0]) {
				idx, fromRunq = r, true
			} else {
				idx, fromRunq = k.heap[0], false
			}
		case hasR:
			idx, fromRunq = k.runq[k.runqHead], true
		case hasH:
			idx, fromRunq = k.heap[0], false
		default:
			return 0, false, false
		}
		if k.slots[idx].kind != evCancelled {
			return idx, fromRunq, true
		}
		k.remove(fromRunq)
		k.release(idx)
	}
}

// remove discards the front entry of the indicated queue.
func (k *Kernel) remove(fromRunq bool) {
	if fromRunq {
		k.runqHead++
		if k.runqHead == len(k.runq) {
			k.runq = k.runq[:0]
			k.runqHead = 0
		}
		return
	}
	k.heapPop()
}

// step executes the next scheduled event. It reports false when the schedule
// is empty.
func (k *Kernel) step() bool {
	idx, fromRunq, ok := k.front()
	if !ok {
		return false
	}
	k.remove(fromRunq)
	s := &k.slots[idx]
	if s.at < k.now {
		panic("pearl: time went backwards")
	}
	if s.at > k.sampleAt {
		k.sampleBefore(s.at)
	}
	k.now = s.at
	k.eventCount++
	k.live--
	kind, fn, proc := s.kind, s.fn, s.proc
	if kind == evDaemon {
		k.daemons--
		k.daemonFired++
	}
	// Release before firing so the slot is immediately reusable by whatever
	// the event schedules.
	k.release(idx)
	switch kind {
	case evFunc, evDaemon:
		fn()
	case evHold:
		k.activate(proc)
	case evWake:
		proc.wakePending = false
		k.activate(proc)
	}
	return true
}

// Run executes events until the schedule is empty (daemon events alone do
// not count — they are left queued, unfired) or Stop is called. It returns
// the final virtual time.
func (k *Kernel) Run() Time {
	k.stopped = false
	for !k.stopped && k.live > k.daemons && k.step() {
	}
	k.sampleEnd()
	return k.now
}

// RunUntil executes events with timestamps <= t, then sets the clock to t if
// the simulation got that far. Like Run, a call to Stop ends execution after
// the current event with the clock left where it stopped — a stopped run
// never silently advances time. It returns the final virtual time.
func (k *Kernel) RunUntil(t Time) Time {
	k.stopped = false
	for !k.stopped {
		idx, _, ok := k.front()
		if !ok {
			break
		}
		if k.slots[idx].at > t {
			k.clockTo(t)
			k.sampleEnd()
			return k.now
		}
		k.step()
	}
	if !k.stopped && k.now < t && k.live == 0 {
		k.clockTo(t)
	}
	k.sampleEnd()
	return k.now
}

// clockTo sets the clock to t without an event, sampling the boundaries it
// passes on the way.
func (k *Kernel) clockTo(t Time) {
	if t > k.sampleAt {
		k.sampleBefore(t)
	}
	k.now = t
}

// Idle reports whether no events remain scheduled. Cancelled entries still
// waiting to be discarded do not count.
func (k *Kernel) Idle() bool { return k.live == 0 }

// Blocked returns the processes that are alive but have no pending event to
// resume them: with an idle kernel these are deadlocked (or waiting on
// external input). Intended for diagnostics at end of simulation.
func (k *Kernel) Blocked() []*Process {
	var out []*Process
	for _, p := range k.procs {
		if !p.terminated && !p.runnable {
			out = append(out, p)
		}
	}
	return out
}

// Processes returns all processes ever spawned on this kernel.
func (k *Kernel) Processes() []*Process { return k.procs }

// DaemonEvents returns how many daemon events have been executed. The
// sharded runner uses it to normalise event counts: background chains
// replicated into every shard (the fault plan) are counted once.
func (k *Kernel) DaemonEvents() uint64 { return k.daemonFired }

// PendingWork reports whether any non-daemon event is queued: the liveness
// condition of Run, exposed so a shard coordinator can decide termination
// across several kernels.
func (k *Kernel) PendingWork() bool { return k.live > k.daemons }

// NextTime returns the timestamp of the next live event (daemon or not),
// discarding cancelled entries on the way; ok is false with nothing queued.
func (k *Kernel) NextTime() (t Time, ok bool) {
	idx, _, ok := k.front()
	if !ok {
		return 0, false
	}
	return k.slots[idx].at, true
}

// Post defers fn to the end of the current instant: it runs once no
// ordinary event remains scheduled for the current time, before time
// advances. Deferred work must be order-insensitive among its peers — the
// kernel fires Posts in submission order, but submission order at one
// instant is not part of the determinism contract the way (time, seq) event
// order is. Only RunWindow executes deferred work.
func (k *Kernel) Post(fn func()) { k.postq = append(k.postq, fn) }

// Settle defers fn like Post, but to after every Post of the instant has
// run (and any ordinary same-instant events those created): a second, final
// deferral phase. The sharded network settles link arbitration here so that
// every competing request issued anywhere in the instant is visible before
// a grant is decided.
func (k *Kernel) Settle(fn func()) { k.settleq = append(k.settleq, fn) }

// runDeferred fires one deferred callback if one is eligible, preferring
// Posts over Settles, and reports whether it did.
func (k *Kernel) runDeferred() bool {
	if k.postHead < len(k.postq) {
		fn := k.postq[k.postHead]
		k.postq[k.postHead] = nil
		k.postHead++
		k.eventCount++
		fn()
		return true
	}
	if k.settleHead < len(k.settleq) {
		fn := k.settleq[k.settleHead]
		k.settleq[k.settleHead] = nil
		k.settleHead++
		k.eventCount++
		fn()
		return true
	}
	return false
}

// RunWindow executes every event with timestamp strictly before end —
// daemon events included, since the window bound, not liveness, limits the
// horizon — interleaving the deferred Post/Settle phases at each instant.
// The clock is left at the last executed event (it does not advance to end
// on its own), so windows compose: consecutive calls with increasing bounds
// replay exactly the schedule a single unbounded run would.
func (k *Kernel) RunWindow(end Time) {
	for {
		idx, _, ok := k.front()
		if ok && k.slots[idx].at == k.now {
			k.step()
			continue
		}
		// Nothing more at this instant: run its deferred phases. A deferred
		// callback may schedule new current-instant events, which then
		// preempt the remaining deferred work above.
		if k.runDeferred() {
			continue
		}
		k.postq, k.postHead = k.postq[:0], 0
		k.settleq, k.settleHead = k.settleq[:0], 0
		if !ok || k.slots[idx].at >= end {
			return
		}
		k.step()
	}
}

// FinishAt advances an idle (no non-daemon work) kernel's clock to t, so
// end-of-run gauges that read Now() agree across the shards of one
// simulation. Daemon events left queued before t stay queued, unfired —
// exactly like the tail of a fault plan after Run returns.
func (k *Kernel) FinishAt(t Time) {
	if k.live > k.daemons {
		panic("pearl: FinishAt with non-daemon events pending")
	}
	if t > k.now {
		k.now = t
	}
}

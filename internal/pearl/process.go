//go:build go1.23

package pearl

import (
	"fmt"
	"iter"
)

// Process is a simulation process: a coroutine (iter.Pull) whose execution
// is interleaved with virtual time under strict kernel control. Model code
// inside a process body is written in a blocking style (Hold, Receive,
// Acquire, Await); the kernel guarantees that exactly one process runs at a
// time, so process bodies need no locking.
type Process struct {
	k    *Kernel
	name string
	id   int

	next  func() (struct{}, bool) // kernel -> process switch
	stop  func()                  // unwinds a parked body (Kernel.Close)
	yield func(struct{}) bool     // process -> kernel switch; false once closed

	terminated  bool
	runnable    bool // currently running or has a pending activation
	wakePending bool
	blockReason string
	blockedAt   Time // when the current block began (valid while blocked)
}

// closed is the sentinel block panics with once Kernel.Close has stopped a
// parked process: it unwinds the body, running its defers, and is swallowed
// when it reaches the top of the coroutine.
type closed struct{}

// Spawn creates a process named name running body and schedules its first
// activation at the current virtual time. The body starts parked; it will not
// run before control returns to the kernel loop.
func (k *Kernel) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{k: k, name: name, id: len(k.procs)}
	k.procs = append(k.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.terminated = true
			if v := recover(); v != nil && v != (closed{}) {
				panic(fmt.Sprintf("pearl: %v panicked: %v", p, v))
			}
		}()
		body(p)
	})
	p.unpark()
	return p
}

// Close stops every process that has not terminated: a parked body unwinds
// from its blocking call with its defers run, and a body that never started
// never runs. Without it a parked process keeps its coroutine, and through
// it the model, alive for the rest of the program. Call it once the run and
// its diagnostics (Blocked) are done; a closed kernel must not run again.
func (k *Kernel) Close() {
	for _, p := range k.procs {
		k.current = p // a defer that blocks again unwinds too
		p.stop()
		p.terminated = true
	}
	k.current = nil
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Process) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Process) Now() Time { return p.k.now }

// Terminated reports whether the process body has returned.
func (p *Process) Terminated() bool { return p.terminated }

// BlockReason returns a short description of what the process is currently
// blocked on; empty if running or terminated. For diagnostics.
func (p *Process) BlockReason() string { return p.blockReason }

// String implements fmt.Stringer.
func (p *Process) String() string {
	return fmt.Sprintf("process %q (#%d)", p.name, p.id)
}

// activate resumes the process coroutine until it blocks or terminates. A
// panic in the body propagates from here, naming the process. Must be called
// from the kernel loop (event context).
func (k *Kernel) activate(p *Process) {
	if p.terminated {
		return
	}
	if k.tracer != nil && p.blockReason != "" && k.now > p.blockedAt {
		k.tracer.ProcessSpan(p, p.blockedAt, k.now, p.blockReason)
	}
	prev := k.current
	k.current = p
	p.runnable = true
	p.blockReason = ""
	p.next()
	k.current = prev
}

// block yields control to the kernel. It returns when the process is next
// activated — by the event a Hold scheduled, or by unpark for
// Receive/Acquire/Await — and unwinds the body instead once the kernel is
// closed.
func (p *Process) block(reason string) {
	if p.k.current != p {
		panic(fmt.Sprintf("pearl: %v blocking while not the running process", p))
	}
	p.runnable = false
	p.blockReason = reason
	p.blockedAt = p.k.now
	if !p.yield(struct{}{}) {
		panic(closed{})
	}
	p.runnable = true
	p.blockReason = ""
}

// Hold advances the process's virtual time by d cycles, yielding control to
// the kernel meanwhile. Hold(0) yields and resumes at the same time but after
// all events already scheduled at the current instant.
func (p *Process) Hold(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("pearl: %v Hold(%d): negative duration", p, d))
	}
	// A typed hold event: no closure, no allocation.
	p.k.schedule(p.k.now+d, evHold, nil, p)
	p.block("hold")
}

// unpark schedules the process to resume at the current virtual time, unless
// an activation is already pending (wakes are idempotent).
func (p *Process) unpark() {
	if p.wakePending || p.terminated {
		return
	}
	p.wakePending = true
	p.runnable = true
	// A typed wake event: no closure, no allocation; the kernel clears
	// wakePending and activates p when it fires.
	p.k.schedule(p.k.now, evWake, nil, p)
}

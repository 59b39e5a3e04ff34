package pearl

// Future is a one-shot completion cell, the reply half of Pearl's synchronous
// (call/reply) message passing: a caller embeds a Future in its request
// message, sends the request asynchronously, and awaits the future; the
// server completes it when the reply is ready.
type Future struct {
	k       *Kernel
	done    bool
	val     any
	waiters []*Process
}

// NewFuture creates an incomplete future.
func (k *Kernel) NewFuture() *Future { return &Future{k: k} }

// Done reports whether the future has been completed.
func (f *Future) Done() bool { return f.done }

// Value returns the completion value; valid only once Done.
func (f *Future) Value() any { return f.val }

// Complete resolves the future with v and wakes all awaiting processes.
// Completing a future twice panics: replies are one-shot.
func (f *Future) Complete(v any) {
	if f.done {
		panic("pearl: future completed twice")
	}
	f.done = true
	f.val = v
	for _, w := range f.waiters {
		if !w.terminated {
			w.unpark()
		}
	}
	f.waiters = nil
}

// CompleteAfter resolves the future d cycles from now.
func (f *Future) CompleteAfter(d Time, v any) {
	if d == 0 {
		f.Complete(v)
		return
	}
	f.k.After(d, func() { f.Complete(v) })
}

// Await blocks the process until the future is complete, returning its value.
func (p *Process) Await(f *Future) any {
	for !f.done {
		f.waiters = append(f.waiters, p)
		p.block("await")
	}
	return f.val
}

// Call performs a synchronous request on mb: it sends req wrapped in a Call
// envelope and blocks until the server completes the reply. Servers receive
// *CallMsg values and must call Reply exactly once.
func (p *Process) Call(mb *Mailbox, req any) any {
	c := &CallMsg{Req: req, reply: p.k.NewFuture()}
	mb.Send(c)
	return p.Await(c.reply)
}

// CallMsg is the envelope used by Process.Call.
type CallMsg struct {
	Req    any
	reply  *Future
	didRep bool
}

// Reply completes the call with v. It must be called exactly once.
func (c *CallMsg) Reply(v any) {
	if c.didRep {
		panic("pearl: double reply to call")
	}
	c.didRep = true
	c.reply.Complete(v)
}

// ReplyAfter completes the call with v after d cycles.
func (c *CallMsg) ReplyAfter(d Time, v any) {
	if c.didRep {
		panic("pearl: double reply to call")
	}
	c.didRep = true
	c.reply.CompleteAfter(d, v)
}

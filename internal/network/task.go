package network

import (
	"fmt"
	"io"

	"mermaid/internal/analysis"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/stats"
	"mermaid/internal/trace"
)

// Task-level nodes: the abstract processor of Fig. 3b. It reads a
// task-level operation trace, models each compute operation as a single
// hold and dispatches communication to the node's router — the
// fast-prototyping abstraction level, whose slowdown is dominated by
// communication.
//
// Each node is a small state machine driven by kernel events instead of a
// blocking process: every point where a process would Hold or Await is a
// phase the node parks in, resumed by its one continuation. Its message
// matching mirrors NodeIf's (MPI-like, oldest compatible first), but over a
// parked phase rather than a blocked process.

// Node phases: where a node's state machine resumes when its continuation
// fires. cnRun re-enters the fetch-execute loop directly.
const (
	cnRun         uint8 = iota
	cnComputeDone       // Hold(dur) of a compute task elapsed
	cnSendBody          // send overhead elapsed; inject the message
	cnSendAcked         // rendezvous ack arrived; finish the sync send
	cnRecvBody          // recv overhead elapsed; match or block
	cnRecvGot           // blocking receive matched; finish the recv
	cnARecvBody         // recv overhead elapsed; post the async receive
)

// cnode is one task-level node: the trace cursor, the operation in flight
// across a park, the matching state, and the processor's accounting. cont
// is the node's single continuation; every event the node schedules reuses
// it.
type cnode struct {
	n    *Network
	id   int32
	cur  *trace.Cursor
	cont func()

	ev         trace.Event
	phase      uint8
	done       bool
	opStart    pearl.Time
	blockStart pearl.Time
	wait       *cfut // future the node is parked on (blocking receives)

	arrived []*Message
	waiters []crecvWait
	handles map[uint64]*cfut // lazily allocated; most nodes never arecv

	computeCycles pearl.Time
	commCycles    pearl.Time
	tasks         stats.Counter
}

// cfut is a task-level receive completion: the matched message, and
// whether the owning node is parked on it.
type cfut struct {
	val     *Message
	done    bool
	waiting bool
}

type crecvWait struct {
	src int32
	tag uint32
	fut *cfut
}

// Attach drives node i with a task-level trace and schedules the node's
// first fetch at the current time. Call in ascending node order: the
// first-fetch events then fire in node order. A node is either attached or
// served through its NodeIf, never both.
func (n *Network) Attach(i int, src trace.Source) {
	if n.rx[i] != nil {
		panic(fmt.Sprintf("network: node %d already has a receiver", i))
	}
	if n.nodes == nil {
		n.nodes = make([]cnode, n.topo.Nodes())
	}
	nd := &n.nodes[i]
	nd.n, nd.id = n, int32(i)
	nd.cur = trace.NewCursor(src)
	nd.cont = nd.step
	n.rx[i] = nd
	n.col.RegisterCPU(i, fmt.Sprintf("proc%d", i), func() analysis.CPUSample {
		return analysis.CPUSample{Compute: nd.computeCycles, CommBlocked: nd.commCycles}
	})
	n.k.After(0, nd.cont)
}

// step resumes the node when its continuation fires: it finishes the phase
// the node was parked in, then re-enters the fetch-execute loop.
func (nd *cnode) step() {
	n := nd.n
	now := n.k.Now()
	switch nd.phase {
	case cnRun:
		// Initial fetch: nothing to finish.
	case cnComputeDone:
		n.col.ProcessSpan(nil, nd.opStart, now, "hold")
		n.col.Compute(int(nd.id), nd.opStart, now)
	case cnSendBody:
		n.col.ProcessSpan(nil, nd.opStart, now, "hold")
		if !nd.sendBody() {
			return // parked awaiting the rendezvous ack
		}
	case cnSendAcked:
		n.col.ProcessSpan(nil, nd.blockStart, now, "await")
		n.nifs[nd.id].sendBlock += now - nd.blockStart
		o := &nd.ev.Op
		nd.finishOp(trace.Feedback{Peer: o.Peer, Tag: o.Tag})
	case cnRecvBody:
		n.col.ProcessSpan(nil, nd.opStart, now, "hold")
		if !nd.recvBody() {
			return // parked awaiting a matching arrival
		}
	case cnRecvGot:
		n.col.ProcessSpan(nil, nd.blockStart, now, "await")
		m := nd.wait.val
		nd.wait = nil
		n.nifs[nd.id].recvBlock += now - nd.blockStart
		nd.finishOp(trace.Feedback{Peer: int32(m.Src), Tag: m.Tag, Payload: m.Payload})
	case cnARecvBody:
		n.col.ProcessSpan(nil, nd.opStart, now, "hold")
		nd.arecvBody()
	}
	nd.phase = cnRun
	nd.runLoop()
}

// park suspends the node until its continuation fires in the given phase,
// d cycles from now.
func (nd *cnode) park(phase uint8, d pearl.Time) {
	nd.phase = phase
	nd.n.k.After(d, nd.cont)
}

// block suspends the node in the given phase until an arrival wakes it.
func (nd *cnode) block(phase uint8) {
	nd.phase = phase
	nd.blockStart = nd.n.k.Now()
}

// runLoop fetches operations until the trace ends, an error surfaces, or an
// operation suspends the node.
func (nd *cnode) runLoop() {
	for {
		ev, err := nd.cur.Next()
		if err == io.EOF {
			nd.done = true
			return
		}
		if err != nil {
			nd.fail(err)
			return
		}
		nd.ev = ev
		if !nd.execOp() {
			return
		}
	}
}

func (nd *cnode) fail(err error) {
	nd.done = true
	if nd.n.firstErr == nil {
		nd.n.firstErr = err
	}
}

// execOp starts the fetched operation. It reports whether the operation
// completed synchronously (true: keep fetching).
func (nd *cnode) execOp() bool {
	n := nd.n
	o := &nd.ev.Op
	nd.opStart = n.k.Now()
	switch o.Kind {
	case ops.Compute:
		nd.computeCycles += pearl.Time(o.Dur)
		nd.tasks.Inc()
		if o.Dur > 0 {
			nd.park(cnComputeDone, pearl.Time(o.Dur))
			return false
		}
		return true
	case ops.Send, ops.ASend:
		if dst := int(o.Peer); dst < 0 || dst >= n.topo.Nodes() {
			panic(fmt.Sprintf("network: node %d sending to invalid destination %d", nd.id, dst))
		}
		n.nifs[nd.id].sends.Inc()
		if n.cfg.SendOverhead > 0 {
			nd.park(cnSendBody, n.cfg.SendOverhead)
			return false
		}
		return nd.sendBody()
	case ops.Recv:
		n.nifs[nd.id].recvs.Inc()
		if n.cfg.RecvOverhead > 0 {
			nd.park(cnRecvBody, n.cfg.RecvOverhead)
			return false
		}
		return nd.recvBody()
	case ops.ARecv:
		n.nifs[nd.id].recvs.Inc()
		if n.cfg.RecvOverhead > 0 {
			nd.park(cnARecvBody, n.cfg.RecvOverhead)
			return false
		}
		nd.arecvBody()
		return true
	case ops.WaitRecv:
		return nd.waitBody()
	default:
		nd.fail(fmt.Errorf("network: task-level trace for node %d contains %s; "+
			"instruction-level operations need the computational model", nd.id, o.Kind))
		return false
	}
}

// finishOp delivers the trace feedback, charges the communication time and
// records the operation for the bottleneck analysis.
func (nd *cnode) finishOp(fb trace.Feedback) {
	n := nd.n
	if nd.ev.Resume != nil {
		nd.ev.Resume <- fb
	}
	now := n.k.Now()
	nd.commCycles += now - nd.opStart
	if n.col == nil {
		return
	}
	switch nd.ev.Op.Kind {
	case ops.Send:
		n.col.Send(int(nd.id), fb.Peer, "send", nd.opStart, now)
	case ops.ASend:
		n.col.Send(int(nd.id), fb.Peer, "asend", nd.opStart, now)
	case ops.Recv:
		n.col.Recv(int(nd.id), fb.Peer, "recv", nd.opStart, now)
	case ops.WaitRecv:
		n.col.Recv(int(nd.id), fb.Peer, "waitrecv", nd.opStart, now)
	}
}

// sendBody injects the message once the send overhead has elapsed. A
// synchronous send parks the node until the rendezvous ack arrives (false);
// an asynchronous send completes in place (true).
func (nd *cnode) sendBody() bool {
	o := &nd.ev.Op
	sync := o.Kind == ops.Send
	nd.n.inject(&Message{Src: int(nd.id), Dst: int(o.Peer), Size: o.Size, Tag: o.Tag, Payload: nd.ev.Payload, Sync: sync})
	if sync {
		nd.block(cnSendAcked)
		return false
	}
	nd.finishOp(trace.Feedback{Peer: o.Peer, Tag: o.Tag})
	return true
}

// recvBody matches a blocking receive once the overhead has elapsed, or
// parks the node until a matching arrival.
func (nd *cnode) recvBody() bool {
	o := &nd.ev.Op
	if m := nd.takeArrived(o.Peer, o.Tag); m != nil {
		nd.n.sendAck(m)
		nd.finishOp(trace.Feedback{Peer: int32(m.Src), Tag: m.Tag, Payload: m.Payload})
		return true
	}
	f := &cfut{waiting: true}
	nd.waiters = append(nd.waiters, crecvWait{src: o.Peer, tag: o.Tag, fut: f})
	nd.wait = f
	nd.block(cnRecvGot)
	return false
}

// arecvBody posts an asynchronous receive; it never blocks.
func (nd *cnode) arecvBody() {
	o := &nd.ev.Op
	if _, dup := nd.handles[o.Addr]; dup {
		panic(fmt.Sprintf("network: node %d reusing arecv handle %d", nd.id, o.Addr))
	}
	if nd.handles == nil {
		nd.handles = make(map[uint64]*cfut)
	}
	f := &cfut{}
	nd.handles[o.Addr] = f
	if m := nd.takeArrived(o.Peer, o.Tag); m != nil {
		nd.n.sendAck(m)
		f.done, f.val = true, m
	} else {
		nd.waiters = append(nd.waiters, crecvWait{src: o.Peer, tag: o.Tag, fut: f})
	}
	nd.finishOp(trace.Feedback{Peer: o.Peer, Tag: o.Tag})
}

// waitBody completes a posted receive: in place if it already matched,
// else by parking. It has no receive accounting and no overhead.
func (nd *cnode) waitBody() bool {
	o := &nd.ev.Op
	f, ok := nd.handles[o.Addr]
	if !ok {
		panic(fmt.Sprintf("network: node %d waiting on unknown arecv handle %d", nd.id, o.Addr))
	}
	delete(nd.handles, o.Addr)
	if f.done {
		nd.finishOp(trace.Feedback{Peer: int32(f.val.Src), Tag: f.val.Tag, Payload: f.val.Payload})
		return true
	}
	f.waiting = true
	nd.wait = f
	nd.block(cnRecvGot)
	return false
}

// takeArrived removes and returns the oldest arrived message matching
// (src, tag), or nil.
func (nd *cnode) takeArrived(src int32, tag uint32) *Message {
	for i, m := range nd.arrived {
		if matches(src, tag, m) {
			nd.arrived = append(nd.arrived[:i], nd.arrived[i+1:]...)
			return m
		}
	}
	return nil
}

// arrive takes a fully arrived message: an ack resumes the parked sync
// send; anything else completes the oldest compatible posted receive, or
// queues. Completing the receive the node is parked on schedules its
// continuation — the one wake a completed future would issue.
func (nd *cnode) arrive(m *Message) {
	n := nd.n
	if m.isAck {
		n.k.After(0, nd.cont)
		return
	}
	for i, w := range nd.waiters {
		if matches(w.src, w.tag, m) {
			nd.waiters = append(nd.waiters[:i], nd.waiters[i+1:]...)
			n.sendAck(m)
			w.fut.done, w.fut.val = true, m
			if w.fut.waiting {
				w.fut.waiting = false
				n.k.After(0, nd.cont)
			}
			return
		}
	}
	nd.arrived = append(nd.arrived, m)
}

// Err returns the first trace error any task-level node hit, if any.
func (n *Network) Err() error { return n.firstErr }

// AllDone reports whether every task-level node has drained its trace.
func (n *Network) AllDone() bool {
	for i := range n.nodes {
		if n.nodes[i].cur != nil && !n.nodes[i].done {
			return false
		}
	}
	return true
}

// ProcStats reports task-level node i's processor and interface counters.
func (n *Network) ProcStats(i int) *stats.Set {
	nd := &n.nodes[i]
	s := stats.NewSet(fmt.Sprintf("proc%d", i))
	s.PutUint("compute tasks", nd.tasks.Value(), "")
	s.PutInt("compute cycles", int64(nd.computeCycles), "cyc")
	s.Subsets = append(s.Subsets, n.nifs[i].set(i))
	return s
}

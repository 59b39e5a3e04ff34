package network

import (
	"fmt"
	"sort"

	"mermaid/internal/analysis"
	"mermaid/internal/fault"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/topology"
)

// Network is the single-kernel communication fabric: per node a router and
// its outgoing links, connected by the topology. Packets are pooled records
// moved by plain kernel events, and link state is held in flat
// struct-of-arrays slices, so a node costs a few dozen bytes and no
// goroutine — which is what makes 10^5..10^6-node machines tractable.
//
// Two kinds of node drive the fabric. A NodeIf (Node) serves blocking
// simulation processes: detailed nodes and the DSM layer. A task-level node
// (Attach) is a small state machine consuming a task-level trace. Each node
// registers where its arrivals go, so the fabric itself never branches on
// which kind it is serving.
//
// Every kernel interaction is one k.After at a fixed program point — packet
// start, blocked channel handoff, per-hop hold, body drain, retransmission
// backoff — so the (time, seq) order of every event, and with it every RNG
// draw, counter and report, is a deterministic function of the model (pinned
// byte for byte by the goldens under internal/machine/testdata).
type Network struct {
	k    *pearl.Kernel
	cfg  Config
	topo topology.Topology
	deg  int
	rng  *pearl.RNG // Valiant intermediate draws

	// Directed link state, indexed (node*deg+port)*numVCs+vc. Each virtual
	// channel is a capacity-1 FIFO resource: a busy flag, the busy-cycle
	// integral and its last-change time, and a queue of the packets blocked
	// on it. The queue map is empty except under contention.
	linkBusy    []uint8
	linkLast    []pearl.Time
	linkBusyCyc []pearl.Time
	linkWait    map[int32]pktQueue
	wiredPort   []bool // per (node*deg+port); both VCs share the wiring

	// Per node: where completed messages go (nil until a NodeIf or a
	// task-level trace claims the node), the interface accounting, and the
	// task-level state, allocated by the first Attach.
	rx    []receiver
	nifs  []nifStats
	nodes []cnode

	msgLatency stats.Histogram
	hopHist    stats.Histogram
	messages   stats.Counter
	packets    stats.Counter
	bytes      stats.Counter
	acks       stats.Counter

	// Fault-injection state (nil/zero on a healthy build — the hot path pays
	// one nil test): the injector supplies link/node liveness and packet
	// fates, the table re-paths around dead links, and the counters account
	// the recovery traffic.
	faults      *fault.Injector
	table       *router.LazyTable
	retransmits stats.Counter
	lost        stats.Counter
	repaths     stats.Counter

	reg *probe.Registry

	// Instrumentation, all nil when off. The timeline gets one track per
	// directed link virtual channel and one "pkt" span per channel
	// occupancy. The collector gets per-channel wait and acquisition counts,
	// per-router busy time, and the blocked intervals a packet or task node
	// spends parked, under the reasons a blocked process would report.
	tl           *probe.Timeline
	linkTracks   []probe.Track
	col          *analysis.Collector
	linkWaitCyc  []pearl.Time
	linkAcquires []uint64
	routers      []router.Occupancy

	pktFree  *pkt         // free list: packet records recycle across the run
	relFree  *linkRelease // free list of deferred channel releases
	firstErr error
}

// receiver takes delivery of the messages completing at one node: a NodeIf,
// or a task-level node's state machine.
type receiver interface {
	arrive(m *Message)
}

// pktQueue is the FIFO of packets blocked on one channel, linked through
// pkt.next.
type pktQueue struct {
	head, tail *pkt
	n          int
}

// Packet phases: where a packet's walk resumes when its continuation fires.
const (
	ppStart     uint8 = iota // begin a delivery attempt
	ppGranted                // channel handed over by a releasing packet
	ppAfterHold              // per-hop hold elapsed
	ppDrain                  // body drained at the destination
	ppRetry                  // retransmission backoff elapsed
)

// pkt is one packet in flight. Records are recycled through
// Network.pktFree, so a steady-state run allocates no per-packet state.
type pkt struct {
	n    *Network
	cont func()
	next *pkt // channel wait queue or free list

	msg     *Message
	bytes   uint32
	attempt int

	at, target int
	nextWp     int // pending Valiant waypoint (the true dst), -1 if none
	hops       int
	wrapped    uint32 // per-dimension dateline crossings, bitmask
	phase      uint8

	// The hop in progress: link index just acquired, its port and far end.
	pendLi   int
	pendPort int
	pendNext int

	since pearl.Time // when the packet last suspended

	held   []int32      // wormhole: channel indices owned by the worm
	heldAt []pearl.Time // timeline only: when each held channel was granted
}

// linkRelease is a pooled deferred release of one channel: virtual
// cut-through frees a channel once the packet body has drained behind the
// header.
type linkRelease struct {
	n    *Network
	li   int
	next *linkRelease
	fire func()
}

// New builds the fabric on env's kernel. The probe registry gets the
// traffic counters; a timeline gets one track per link virtual channel; the
// bottleneck collector gets one resource row per channel and per router.
func New(env sim.Env, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k, pb := env.Kernel, env.Probe
	if k == nil {
		return nil, fmt.Errorf("network: sim.Env without a kernel")
	}
	topo, err := topology.New(cfg.Topology)
	if err != nil {
		return nil, err
	}
	nn, deg := topo.Nodes(), topo.Degree()
	if deg > maxChannelSlots/nn {
		return nil, fmt.Errorf("network: topology %s needs %d×%d directed channel slots, more than %d (field Topology)",
			topo.Name(), nn, deg, maxChannelSlots)
	}
	if cfg.LocalBytesPerCycle <= 0 {
		cfg.LocalBytesPerCycle = 8
	}
	n := &Network{k: k, cfg: cfg, topo: topo, deg: deg, rng: pearl.NewRNG(cfg.Seed ^ 0x6d65726d61696431)}
	// Two virtual channels per directed link: wormhole switching moves to
	// the high channel at topology datelines (Dally–Seitz), which keeps it
	// deadlock-free on rings and tori. Each virtual channel is modelled as
	// an independent sub-channel with the full link bandwidth — a slight
	// bandwidth overestimate when both channels of a link are busy at once,
	// in exchange for the deadlock behaviour being exact.
	links := nn * deg * numVCs
	n.linkBusy = make([]uint8, links)
	n.linkLast = make([]pearl.Time, links)
	n.linkBusyCyc = make([]pearl.Time, links)
	n.linkWait = make(map[int32]pktQueue)
	n.wiredPort = make([]bool, nn*deg)
	n.tl, n.col = pb.Timeline(), env.Collect
	if n.tl != nil {
		n.linkTracks = make([]probe.Track, links)
	}
	if n.col != nil {
		n.linkWaitCyc = make([]pearl.Time, links)
		n.linkAcquires = make([]uint64, links)
	}
	for node := 0; node < nn; node++ {
		for port := 0; port < deg; port++ {
			if topo.Neighbor(node, port) < 0 {
				continue
			}
			n.wiredPort[node*deg+port] = true
			if n.tl == nil && n.col == nil {
				continue
			}
			for vc := 0; vc < numVCs; vc++ {
				li := (node*deg+port)*numVCs + vc
				if n.col != nil {
					n.col.RegisterResource("link", n.linkName(li), 1, func() analysis.ResourceSample {
						n.accountLink(li)
						return analysis.ResourceSample{Busy: n.linkBusyCyc[li], Wait: n.linkWaitCyc[li], Acquires: n.linkAcquires[li]}
					})
				}
				if n.tl != nil {
					n.linkTracks[li] = n.tl.Track(fmt.Sprintf("net.link%d.%d.vc%d", node, port, vc))
				}
			}
		}
	}
	n.rx = make([]receiver, nn)
	n.nifs = make([]nifStats, nn)
	reg := pb.Registry()
	for i := range n.nifs {
		reg.Counter(fmt.Sprintf("net.nif%d.sends", i), &n.nifs[i].sends)
		reg.Counter(fmt.Sprintf("net.nif%d.recvs", i), &n.nifs[i].recvs)
	}
	reg.Counter("net.messages", &n.messages)
	reg.Counter("net.packets", &n.packets)
	reg.Counter("net.bytes", &n.bytes)
	reg.Counter("net.acks", &n.acks)
	reg.Gauge("net.latency.mean", "cyc", n.msgLatency.Mean)
	reg.Gauge("net.hops.mean", "", n.hopHist.Mean)
	reg.Gauge("net.link-utilization.avg", "", func() float64 { avg, _ := n.LinkUtilization(); return avg })
	n.reg = reg
	if n.col != nil {
		n.routers = make([]router.Occupancy, nn)
		for node := 0; node < nn; node++ {
			o := &n.routers[node]
			n.col.RegisterResource("router", fmt.Sprintf("router.%d", node), 1, func() analysis.ResourceSample {
				return analysis.ResourceSample{Busy: o.Busy(), Acquires: o.Hops()}
			})
		}
	}
	return n, nil
}

// AttachFaults activates the fault-injection subsystem on this network: the
// injector's schedule governs link/node liveness and packet noise, routing
// switches to a re-pathing table recomputed on every topology-change event,
// and lost packets are recovered by retransmission with exponential backoff.
// Attaching nil is a no-op; must be called before the simulation runs.
//
// While faults are attached, path selection is always table-based minimal
// routing over the live graph: the Valiant and Adaptive strategies assume a
// static topology and are overridden (see DESIGN.md, "Fault model").
func (n *Network) AttachFaults(inj *fault.Injector) {
	if inj == nil {
		return
	}
	n.faults = inj
	n.reg.Counter("net.retransmits", &n.retransmits)
	n.reg.Counter("net.lost", &n.lost)
	n.reg.Counter("net.repaths", &n.repaths)
	// Per-destination rows are computed on first use and dropped on every
	// topology-change event, so the fault-affected cut is the only part of
	// the O(N²) table a run ever pays for.
	n.table = router.NewLazyTable(n.topo, inj.Alive)
	inj.OnChange(func() {
		n.table.Invalidate()
		n.repaths.Inc()
	})
}

// Node returns node i's network interface, building it on first use. Only
// nodes driven by blocking processes need one, so a task-level machine never
// pays for them. A node attached to a task-level trace has none.
func (n *Network) Node(i int) *NodeIf {
	switch r := n.rx[i].(type) {
	case *NodeIf:
		return r
	case nil:
		ni := &NodeIf{tr: n, k: n.k, id: i, st: &n.nifs[i], handles: make(map[uint64]*pearl.Future)}
		n.rx[i] = ni
		return ni
	}
	panic(fmt.Sprintf("network: node %d runs a task-level trace and has no NodeIf", i))
}

// transport implementation (see nodeif.go).
func (n *Network) nodeCount() int  { return n.topo.Nodes() }
func (n *Network) config() *Config { return &n.cfg }

func (n *Network) transferTime(bytes uint32) pearl.Time {
	if cpb := n.cfg.Link.CyclesPerByte; cpb > 0 {
		return pearl.Time(int(bytes) * cpb)
	}
	bpc := n.cfg.Link.BytesPerCycle
	return pearl.Time((int(bytes) + bpc - 1) / bpc)
}

// inject launches the transport of msg at the moment it enters the sender's
// network interface.
func (n *Network) inject(msg *Message) {
	msg.injectedAt = n.k.Now()
	if !msg.isAck {
		n.messages.Inc()
		n.bytes.Add(uint64(msg.Size))
	}
	if msg.Src == msg.Dst {
		// Local: a memory copy, never entering the network.
		copyT := pearl.Time((int(msg.Size) + n.cfg.LocalBytesPerCycle - 1) / n.cfg.LocalBytesPerCycle)
		n.k.After(copyT, func() { n.delivered(msg) })
		return
	}
	rc := &n.cfg.Router
	msg.remaining = rc.NumPackets(msg.Size)
	left := msg.Size
	for i := 0; i < msg.remaining; i++ {
		chunk := min(left, uint32(rc.MaxPacket))
		left -= chunk
		n.packets.Inc()
		pk := n.newPkt(msg, chunk+uint32(rc.HeaderBytes))
		n.k.After(0, pk.cont)
	}
}

// delivered hands a fully arrived message to the destination's receiver.
func (n *Network) delivered(msg *Message) {
	if !msg.isAck {
		n.msgLatency.Observe(int64(n.k.Now() - msg.injectedAt))
	}
	r := n.rx[msg.Dst]
	if r == nil {
		r = n.Node(msg.Dst)
	}
	r.arrive(msg)
}

// sendAck issues the rendezvous acknowledgement completing a synchronous
// send, once the receiver has accepted the message.
func (n *Network) sendAck(msg *Message) {
	if !msg.Sync {
		return
	}
	n.acks.Inc()
	n.inject(&Message{Src: msg.Dst, Dst: msg.Src, Size: uint32(n.cfg.AckBytes), isAck: true, ack: msg.ack})
}

func (n *Network) newPkt(msg *Message, bytes uint32) *pkt {
	pk := n.pktFree
	if pk == nil {
		pk = &pkt{n: n}
		pk.cont = pk.step
	} else {
		n.pktFree = pk.next
	}
	pk.msg, pk.bytes = msg, bytes
	pk.next = nil
	pk.attempt = 0
	pk.phase = ppStart
	return pk
}

func (n *Network) freePkt(pk *pkt) {
	pk.msg = nil
	pk.held = pk.held[:0]
	pk.heldAt = pk.heldAt[:0]
	pk.next = n.pktFree
	n.pktFree = pk
}

// suspend parks the packet until its continuation fires in the given phase.
func (pk *pkt) suspend(phase uint8) {
	pk.phase = phase
	pk.since = pk.n.k.Now()
}

// step resumes a packet's walk when its continuation fires.
func (pk *pkt) step() {
	n := pk.n
	if n.col != nil {
		n.packetBlocked(pk)
	}
	switch pk.phase {
	case ppStart, ppRetry:
		n.attemptStart(pk)
	case ppGranted:
		n.granted(pk)
	case ppAfterHold:
		n.afterHold(pk)
	case ppDrain:
		n.finishAttempt(pk)
	}
}

// packetBlocked feeds the collector the interval the packet spent parked,
// under the reason a blocked process reports ("hold", "acquire <channel>"),
// and accounts channel queueing.
func (n *Network) packetBlocked(pk *pkt) {
	now := n.k.Now()
	switch pk.phase {
	case ppStart:
		return
	case ppGranted:
		li := pk.pendLi
		n.linkWaitCyc[li] += now - pk.since
		if now > pk.since {
			n.col.ProcessSpan(nil, pk.since, now, "acquire "+n.linkName(li))
		}
	default:
		n.col.ProcessSpan(nil, pk.since, now, "hold")
	}
}

// linkName is channel li's resource name, "link.<node>.<port>.vc<vc>".
func (n *Network) linkName(li int) string {
	port := li / numVCs
	return fmt.Sprintf("link.%d.%d.vc%d", port/n.deg, port%n.deg, li%numVCs)
}

// attemptStart begins one delivery attempt.
func (n *Network) attemptStart(pk *pkt) {
	rc := &n.cfg.Router
	pk.hops = 0
	pk.wrapped = 0
	pk.at = pk.msg.Src
	if n.faults != nil && (n.faults.NodeDown(pk.msg.Src) || n.faults.NodeDown(pk.msg.Dst)) {
		// Source interface crashed, or the destination would discard the
		// arrival: the packet goes nowhere this attempt.
		n.faults.CountDrop()
		n.failAttempt(pk)
		return
	}
	// Valiant routing: a random intermediate waypoint precedes the true
	// destination; each leg is routed minimally. Under active faults the
	// re-pathing table overrides it (minimal routing over the live graph).
	pk.target = pk.msg.Dst
	pk.nextWp = -1
	if rc.Routing == router.Valiant && n.table == nil {
		if mid := n.rng.Intn(n.topo.Nodes()); mid != pk.msg.Src && mid != pk.msg.Dst {
			pk.target = mid
			pk.nextWp = pk.msg.Dst
		}
	}
	n.hopLoop(pk)
}

// hopLoop advances the packet hop by hop until it reaches the destination,
// suspends on a busy channel or an in-progress hop, or the attempt fails.
func (n *Network) hopLoop(pk *pkt) {
	rc := &n.cfg.Router
	for pk.at != pk.msg.Dst {
		if pk.at == pk.target && pk.nextWp >= 0 {
			pk.target = pk.nextWp
			pk.nextWp = -1
		}
		var port int
		switch {
		case n.table != nil:
			port = n.table.Port(pk.at, pk.target)
			if port < 0 {
				// The live graph is partitioned right now; retry after the
				// timeout, by which time links may have recovered.
				n.faults.CountDrop()
				n.releaseHeld(pk)
				n.failAttempt(pk)
				return
			}
		case rc.Routing == router.Adaptive:
			port = n.adaptivePort(pk.at, pk.target)
		default:
			port = n.topo.Route(pk.at, pk.target)
		}
		if n.faults != nil && n.faults.LinkDown(pk.at, port) {
			// The table has not been recomputed for a fault landing at this
			// exact instant; the packet is lost at the dead link.
			n.faults.CountDrop()
			n.releaseHeld(pk)
			n.failAttempt(pk)
			return
		}
		next := n.topo.Neighbor(pk.at, port)
		vc := 0
		if rc.Switching == router.Wormhole {
			// Dateline virtual-channel selection, per dimension.
			d := n.topo.PortDim(port)
			if n.topo.Dateline(pk.at, port) {
				pk.wrapped |= 1 << d
			}
			if pk.wrapped&(1<<d) != 0 {
				vc = 1
			}
		}
		li := (pk.at*n.deg+port)*numVCs + vc
		pk.pendLi, pk.pendPort, pk.pendNext = li, port, next
		if q, busy := n.linkWait[int32(li)]; n.linkBusy[li] == 0 && !busy {
			n.accountLink(li)
			n.linkBusy[li]++
			n.granted(pk)
		} else {
			// Strict FIFO: a newcomer never overtakes a queued packet.
			if q.tail == nil {
				q.head = pk
			} else {
				q.tail.next = pk
			}
			q.tail = pk
			q.n++
			n.linkWait[int32(li)] = q
			pk.suspend(ppGranted)
		}
		return
	}
	n.arrivedAtDst(pk)
}

// granted owns the channel at pk.pendLi: count the hop and start crossing.
func (n *Network) granted(pk *pkt) {
	rc := &n.cfg.Router
	now := n.k.Now()
	pk.hops++
	if n.col != nil {
		n.linkAcquires[pk.pendLi]++
		n.routers[pk.at].Charge(rc.RoutingDelay)
	}
	perHop := rc.RoutingDelay + n.cfg.Link.PropDelay
	pk.suspend(ppAfterHold) // since is now the grant time afterHold reads
	switch rc.Switching {
	case router.StoreAndForward:
		// The whole packet crosses before the next hop starts.
		n.k.After(perHop+n.transferTime(pk.bytes), pk.cont)
	case router.VirtualCutThrough:
		// Header advances; the body streams behind.
		n.k.After(perHop, pk.cont)
	case router.Wormhole:
		// Channels stay with the worm until delivery.
		pk.held = append(pk.held, int32(pk.pendLi))
		if n.tl != nil {
			pk.heldAt = append(pk.heldAt, now)
		}
		n.k.After(perHop, pk.cont)
	}
}

// afterHold finishes the hop in progress: free or schedule freeing the
// channel, run the per-hop fault checks, advance. pk.since is the time the
// channel was granted.
func (n *Network) afterHold(pk *pkt) {
	li := pk.pendLi
	switch n.cfg.Router.Switching {
	case router.StoreAndForward:
		n.release(li)
		if n.tl != nil {
			n.tl.Span(n.linkTracks[li], "pkt", pk.since, n.k.Now())
		}
	case router.VirtualCutThrough:
		// The channel frees once the body has drained, wherever the header
		// is by then.
		transfer := n.transferTime(pk.bytes)
		n.releaseAfter(transfer, li)
		if n.tl != nil {
			n.tl.Span(n.linkTracks[li], "pkt", pk.since, n.k.Now()+transfer)
		}
	}
	if n.faults != nil {
		if n.faults.LinkDown(pk.at, pk.pendPort) {
			// The link failed while the packet was crossing it.
			n.faults.CountDrop()
			n.releaseHeld(pk)
			n.failAttempt(pk)
			return
		}
		if n.faults.HopFate(pk.at, pk.pendPort) != fault.OK {
			// Dropped in transit or discarded at the next router's
			// checksum; either way this attempt is over.
			n.releaseHeld(pk)
			n.failAttempt(pk)
			return
		}
	}
	pk.at = pk.pendNext
	n.hopLoop(pk)
}

// arrivedAtDst runs the attempt epilogue once the header is at the
// destination: drain the body (non-SAF), then finish.
func (n *Network) arrivedAtDst(pk *pkt) {
	if n.cfg.Router.Switching != router.StoreAndForward {
		pk.suspend(ppDrain)
		n.k.After(n.transferTime(pk.bytes), pk.cont)
		return
	}
	n.finishAttempt(pk)
}

// finishAttempt ends a traversal and delivers the message once its last
// packet is in.
func (n *Network) finishAttempt(pk *pkt) {
	n.releaseHeld(pk)
	if n.faults != nil && n.faults.NodeDown(pk.msg.Dst) {
		// The destination crashed while the packet was in flight.
		n.faults.CountDrop()
		n.failAttempt(pk)
		return
	}
	n.hopHist.Observe(int64(pk.hops))
	msg := pk.msg
	n.freePkt(pk)
	msg.remaining--
	if msg.remaining == 0 {
		n.delivered(msg)
	}
}

// failAttempt handles a lost packet. The source learns of the loss through
// its retransmission timer (corruptions are discarded at the receiver, so
// recovery timing is the same) and resends after the timeout, backing off
// exponentially per attempt, until MaxRetries.
func (n *Network) failAttempt(pk *pkt) {
	pk.attempt++
	rt := n.faults.Retrans()
	if rt.MaxRetries > 0 && pk.attempt > rt.MaxRetries {
		// Abandon the packet: the message can never complete, which the
		// end-of-run drain check reports as blocked receivers.
		n.lost.Inc()
		n.freePkt(pk)
		return
	}
	n.retransmits.Inc()
	pk.suspend(ppRetry)
	n.k.After(rt.Delay(pk.attempt), pk.cont)
}

// releaseHeld frees a worm's channels when an attempt ends, successfully or
// not; the timeline spans cover the time the channels were actually owned.
func (n *Network) releaseHeld(pk *pkt) {
	for i, li := range pk.held {
		n.release(int(li))
		if n.tl != nil {
			n.tl.Span(n.linkTracks[li], "pkt", pk.heldAt[i], n.k.Now())
		}
	}
	pk.held = pk.held[:0]
	pk.heldAt = pk.heldAt[:0]
}

// accountLink integrates channel li's busy units over the interval since
// its last change.
func (n *Network) accountLink(li int) {
	now := n.k.Now()
	n.linkBusyCyc[li] += pearl.Time(n.linkBusy[li]) * (now - n.linkLast[li])
	n.linkLast[li] = now
}

// release frees channel li and transfers it directly to the head waiter, if
// any, waking it with a single event — so no newcomer can steal it.
func (n *Network) release(li int) {
	n.accountLink(li)
	n.linkBusy[li]--
	q, ok := n.linkWait[int32(li)]
	if !ok {
		return
	}
	pk := q.head
	q.head, pk.next = pk.next, nil
	q.n--
	if q.head == nil {
		delete(n.linkWait, int32(li))
	} else {
		n.linkWait[int32(li)] = q
	}
	n.linkBusy[li]++
	n.k.After(0, pk.cont)
}

// releaseAfter releases channel li d cycles from now.
func (n *Network) releaseAfter(d pearl.Time, li int) {
	r := n.relFree
	if r == nil {
		r = &linkRelease{n: n}
		r.fire = r.run
	} else {
		n.relFree = r.next
	}
	r.li = li
	n.k.After(d, r.fire)
}

func (r *linkRelease) run() {
	n, li := r.n, r.li
	r.next = n.relFree
	n.relFree = r
	n.release(li)
}

// adaptivePort picks, among the minimal output ports, the one whose channel
// is least loaded right now (holder plus queued packets; ties go to the
// lowest port, keeping the choice deterministic).
func (n *Network) adaptivePort(at, to int) int {
	ports := n.topo.MinimalPorts(at, to)
	best := ports[0]
	bestLoad := 1 << 30
	for _, p := range ports {
		li := (at*n.deg + p) * numVCs
		load := int(n.linkBusy[li]) + n.linkWait[int32(li)].n
		if load < bestLoad {
			best, bestLoad = p, load
		}
	}
	return best
}

// Nodes returns the node count.
func (n *Network) Nodes() int { return n.topo.Nodes() }

// Topology returns the interconnect.
func (n *Network) Topology() topology.Topology { return n.topo }

// Faults returns the attached fault injector, or nil on a healthy build.
func (n *Network) Faults() *fault.Injector { return n.faults }

// Blocked describes the task-level nodes and channel-queued packets still
// parked, for deadlock reports, in the kernel's "name (reason)" style.
func (n *Network) Blocked() []string {
	var out []string
	for i := range n.nodes {
		nd := &n.nodes[i]
		if !nd.done && (nd.phase == cnSendAcked || nd.phase == cnRecvGot) {
			out = append(out, fmt.Sprintf("proc%d (await)", i))
		}
	}
	lis := make([]int, 0, len(n.linkWait))
	for li := range n.linkWait {
		lis = append(lis, int(li))
	}
	sort.Ints(lis)
	for _, li := range lis {
		out = append(out, fmt.Sprintf("%d pkt (acquire %s)", n.linkWait[int32(li)].n, n.linkName(li)))
	}
	return out
}

// MessageLatency returns the distribution of end-to-end message latencies
// (injection to full arrival, excluding send/receive overheads and matching).
func (n *Network) MessageLatency() *stats.Histogram { return &n.msgLatency }

// Messages returns the number of application messages injected. Like Bytes,
// it leaves out rendezvous acks; Packets counts theirs.
func (n *Network) Messages() uint64 { return n.messages.Value() }

// Packets returns the number of packets injected, acks included.
func (n *Network) Packets() uint64 { return n.packets.Value() }

// Bytes returns the total application payload bytes injected.
func (n *Network) Bytes() uint64 { return n.bytes.Value() }

// MeanHops returns the average per-packet hop count observed so far.
func (n *Network) MeanHops() float64 { return n.hopHist.Mean() }

// Retransmits returns how many packet retransmissions the network issued.
func (n *Network) Retransmits() uint64 { return n.retransmits.Value() }

// Lost returns how many packets were abandoned after exhausting retries.
func (n *Network) Lost() uint64 { return n.lost.Value() }

// LinkUtilization returns the mean and maximum utilisation over all wired
// link virtual channels.
func (n *Network) LinkUtilization() (avg, max float64) {
	now := n.k.Now()
	count := 0
	for li := range n.linkBusy {
		if !n.wiredPort[li/numVCs] {
			continue
		}
		var u float64
		if now > 0 {
			n.accountLink(li)
			u = float64(n.linkBusyCyc[li]) / float64(now)
		}
		avg += u
		if u > max {
			max = u
		}
		count++
	}
	if count > 0 {
		avg /= float64(count)
	}
	return avg, max
}

// Stats reports the network's aggregate metrics.
func (n *Network) Stats() *stats.Set {
	s := stats.NewSet("network " + n.topo.Name())
	s.PutUint("messages", n.messages.Value(), "")
	s.PutUint("packets", n.packets.Value(), "")
	s.PutUint("payload bytes", n.bytes.Value(), "B")
	s.PutUint("sync acks", n.acks.Value(), "")
	s.Put("mean msg latency", n.msgLatency.Mean(), "cyc")
	s.PutInt("max msg latency", n.msgLatency.Max(), "cyc")
	s.Put("mean hops", n.hopHist.Mean(), "")
	avg, max := n.LinkUtilization()
	s.Put("avg link utilization", avg, "")
	s.Put("max link utilization", max, "")
	return s
}

// Package analysis is the bottleneck engine of the workbench: it answers
// "where does the simulated time go?" for a run. During construction every
// shared resource (bus channels, DRAM ports, network links, routers) and
// every CPU registers a uniform busy/wait accounting hook with the
// Collector; during the run the node and processor models feed it
// compute/communication spans, and the kernel tracer and the network fabric
// feed it blocked intervals. After the run, Analyze folds all of it into a Report: a per-CPU
// virtual-time decomposition that sums exactly to the run length, a
// per-resource utilization and queue-wait table, a critical-path walk
// attributing end-to-end runtime to components, and a ranked bottleneck
// summary — exported as deterministic JSON and as a human-readable section
// of the text report.
//
// Like the probe layer, the Collector is nil-safe and free when disabled:
// every method no-ops on a nil receiver without allocating, so models call
// it unconditionally and an uninstrumented run is byte-identical to a build
// without the package.
package analysis

import (
	"mermaid/internal/pearl"
)

// CPUSample is one processor's accumulated time decomposition, read at
// analysis time. The three classes are disjoint activity intervals of the
// processor's runner; whatever is left of the run length is idle time.
type CPUSample struct {
	// Compute is time spent executing computational operations, excluding
	// memory-hierarchy stalls.
	Compute pearl.Time
	// MemStall is time the processor was stalled on the memory hierarchy
	// (cache misses, bus arbitration, DRAM queueing, DSM page faults).
	MemStall pearl.Time
	// CommBlocked is time spent inside communication operations: send and
	// receive overheads plus blocking on the network.
	CommBlocked pearl.Time
}

// ResourceSample is one shared resource's uniform busy/wait accounting,
// read at analysis time.
type ResourceSample struct {
	// Busy is the occupancy integral: unit-cycles in use.
	Busy pearl.Time
	// Wait is the total queueing time over all completed acquisitions.
	Wait pearl.Time
	// Acquires is the number of completed acquisitions.
	Acquires uint64
}

type cpuEntry struct {
	index  int
	name   string
	sample func() CPUSample
}

type resourceEntry struct {
	kind     string
	name     string
	capacity int
	sample   func() ResourceSample
}

// spanKind discriminates the recorded spans of the critical-path feed.
type spanKind uint8

const (
	spanCompute spanKind = iota
	spanSend
	spanRecv
)

// span is one recorded interval on a processor's own time axis.
type span struct {
	kind     spanKind
	op       string // operation name for reporting ("send", "recv", ...)
	peer     int32  // peer node id, or a negative value for none/any
	from, to pearl.Time
}

// Collector accumulates the accounting of one machine over one run. The zero
// value is not usable; create collectors with New. A nil *Collector is the
// disabled analyzer: every method no-ops without allocating.
//
// The Collector is written from the (single-threaded) simulation goroutine
// only; Analyze must be called after the run completes.
type Collector struct {
	machine     string
	cpusPerNode int

	cpus      []cpuEntry
	resources []resourceEntry

	spans [][]span // per registered CPU index, in nondecreasing end-time order

	// Blocked-interval aggregation from the kernel tracer, by block reason,
	// in first-appearance order (deterministic: the simulation itself is).
	blockedFor map[string]int
	blocked    []blockedEntry
}

type blockedEntry struct {
	reason string
	cycles pearl.Time
	count  uint64
}

// New creates an enabled collector.
func New() *Collector { return &Collector{blockedFor: make(map[string]int)} }

// Enabled reports whether the collector is live (non-nil).
func (c *Collector) Enabled() bool { return c != nil }

// SetMachine records the machine's name and per-node CPU count (used by the
// critical-path walk to map peer node ids to processor indices).
func (c *Collector) SetMachine(name string, cpusPerNode int) {
	if c == nil {
		return
	}
	c.machine = name
	if cpusPerNode < 1 {
		cpusPerNode = 1
	}
	c.cpusPerNode = cpusPerNode
}

// RegisterCPU registers processor `index` (machine-wide) under `name` with a
// sampling hook read at analysis time.
func (c *Collector) RegisterCPU(index int, name string, sample func() CPUSample) {
	if c == nil || sample == nil || index < 0 {
		return
	}
	c.cpus = append(c.cpus, cpuEntry{index: index, name: name, sample: sample})
	for len(c.spans) <= index {
		c.spans = append(c.spans, nil)
	}
}

// RegisterResource registers a shared resource's accounting hook under a
// component kind ("bus", "dram", "link", "router", "storebuf") and its
// stable dotted name.
func (c *Collector) RegisterResource(kind, name string, capacity int, sample func() ResourceSample) {
	if c == nil || sample == nil {
		return
	}
	c.resources = append(c.resources, resourceEntry{kind: kind, name: name, capacity: capacity, sample: sample})
}

// Resource registers a pearl.Resource directly — the common case, since
// buses, memories and networks all model contention with counted resources.
func (c *Collector) Resource(kind string, r *pearl.Resource) {
	if c == nil || r == nil {
		return
	}
	c.RegisterResource(kind, r.Name(), r.Capacity(), func() ResourceSample {
		return ResourceSample{Busy: r.BusyCycles(), Wait: r.WaitCycles(), Acquires: r.Acquires()}
	})
}

// Compute records a compute burst on processor cpu.
func (c *Collector) Compute(cpu int, from, to pearl.Time) {
	if c == nil || to <= from || cpu < 0 || cpu >= len(c.spans) {
		return
	}
	c.spans[cpu] = append(c.spans[cpu], span{kind: spanCompute, op: "compute", from: from, to: to})
}

// Send records a send-side communication operation on processor cpu,
// destined for node peer.
func (c *Collector) Send(cpu int, peer int32, op string, from, to pearl.Time) {
	if c == nil || to < from || cpu < 0 || cpu >= len(c.spans) {
		return
	}
	c.spans[cpu] = append(c.spans[cpu], span{kind: spanSend, op: op, peer: peer, from: from, to: to})
}

// Recv records a receive-side communication operation on processor cpu,
// expecting node peer (negative for "any").
func (c *Collector) Recv(cpu int, peer int32, op string, from, to pearl.Time) {
	if c == nil || to < from || cpu < 0 || cpu >= len(c.spans) {
		return
	}
	c.spans[cpu] = append(c.spans[cpu], span{kind: spanRecv, op: op, peer: peer, from: from, to: to})
}

// ProcessSpan implements pearl.Tracer: blocked intervals are aggregated by
// block reason, giving the report its "who waited on what" table. It fires
// for every process — CPU runners, DSM handlers, drain daemons — and the
// network fabric calls it for its parked packets and task-level nodes, so
// resource queueing shows up no matter who paid for it.
func (c *Collector) ProcessSpan(_ *pearl.Process, from, to pearl.Time, reason string) {
	if c == nil || to <= from {
		return
	}
	i, ok := c.blockedFor[reason]
	if !ok {
		i = len(c.blocked)
		c.blockedFor[reason] = i
		c.blocked = append(c.blocked, blockedEntry{reason: reason})
	}
	c.blocked[i].cycles += to - from
	c.blocked[i].count++
}

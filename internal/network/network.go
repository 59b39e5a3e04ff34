// Package network implements the multi-node communication model of the
// workbench (Fig. 3b): per node an abstract processor, a router and
// communication links, connected in a topology reflecting the physical
// interconnect of the multicomputer. Messages are split into packets by the
// router and moved with a configurable switching strategy; synchronous and
// asynchronous message passing are both supported (Table 1).
package network

import (
	"fmt"

	"mermaid/internal/pearl"
	"mermaid/internal/router"
	"mermaid/internal/topology"
)

// LinkConfig parameterises the point-to-point communication links.
type LinkConfig struct {
	// BytesPerCycle is the link bandwidth for fast links. For links slower
	// than one byte per cycle (e.g. transputer links at a 30 MHz core
	// clock), set CyclesPerByte instead; it takes precedence when non-zero.
	BytesPerCycle int
	CyclesPerByte int
	// PropDelay is the signal propagation delay per hop, in cycles.
	PropDelay pearl.Time
}

// DefaultLink returns a generic 1 byte/cycle link with 1 cycle propagation.
func DefaultLink() LinkConfig { return LinkConfig{BytesPerCycle: 1, PropDelay: 1} }

// Config parameterises the whole communication model.
type Config struct {
	Topology topology.Config
	Router   router.Config
	Link     LinkConfig
	// SendOverhead and RecvOverhead are the software costs charged on the
	// processor for initiating a send or receive (calibrated per machine).
	SendOverhead pearl.Time
	RecvOverhead pearl.Time
	// AckBytes is the size of the acknowledgement that completes a
	// synchronous (rendezvous) send.
	AckBytes int
	// LocalBytesPerCycle is the memory-copy bandwidth for self-sends
	// (src == dst), which never enter the network.
	LocalBytesPerCycle int
	// Seed drives the randomised routing (Valiant intermediate selection).
	Seed uint64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Router.Validate(); err != nil {
		return err
	}
	if c.Link.BytesPerCycle <= 0 && c.Link.CyclesPerByte <= 0 {
		return fmt.Errorf("network: link bandwidth unset")
	}
	if c.Link.PropDelay < 0 || c.SendOverhead < 0 || c.RecvOverhead < 0 {
		return fmt.Errorf("network: negative delay")
	}
	if c.AckBytes < 0 {
		return fmt.Errorf("network: negative ack size")
	}
	return nil
}

// Message is one application-level message in flight or delivered.
type Message struct {
	Src, Dst int
	Size     uint32
	Tag      uint32
	Payload  any
	Sync     bool

	isAck bool
	// ack completes a synchronous send issued through a NodeIf: the sender's
	// process awaits it, and the rendezvous acknowledgement carries it back.
	// Task-level nodes park in a known phase instead and leave it nil.
	ack        *pearl.Future
	remaining  int
	injectedAt pearl.Time
	// key is the message's deterministic identity (src node and per-source
	// injection sequence), assigned by the sharded transport and used to
	// order same-instant interactions canonically. Zero on the single-kernel
	// fabric, which needs no such tie-breaking.
	key uint64
}

// numVCs is the number of virtual channels per directed link.
const numVCs = 2

// maxChannelSlots bounds the directed channel slots (Nodes × Degree) a
// fabric may allocate state for. A fully connected or star topology grows
// quadratically, and an unbounded request would end in a fatal out-of-memory
// error rather than an error return. 1<<26 leaves room for the 100k-node
// dragonfly (1.09e7 slots) and a 100³ 3-D torus (6e6).
const maxChannelSlots = 1 << 26

package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"mermaid/internal/machine"
	"mermaid/internal/stats"
)

// digest identifies a simulated result: any change to the model's output
// changes it, and no change to host speed does.
type digest struct {
	Cycles      int64  `json:"cycles"`
	Events      uint64 `json:"events"`
	StatsSHA256 string `json:"stats_sha256"`
}

func (d digest) String() string {
	return fmt.Sprintf("cycles=%d events=%d stats_sha256=%s", d.Cycles, d.Events, d.StatsSHA256)
}

// digestOf hashes the rendered Result.Stats tree.
func digestOf(res *machine.Result) (digest, error) {
	var b bytes.Buffer
	if err := stats.RenderSet(&b, res.Stats); err != nil {
		return digest{}, fmt.Errorf("render stats: %w", err)
	}
	sum := sha256.Sum256(b.Bytes())
	return digest{Cycles: int64(res.Cycles), Events: res.Events, StatsSHA256: hex.EncodeToString(sum[:])}, nil
}

// pinnedFile holds the digest of every workload at the default seed.
//
//go:embed digests.json
var pinnedFile []byte

type pinnedDigests struct {
	Seed      uint64            `json:"seed"`
	Workloads map[string]digest `json:"workloads"`
}

// pinnedDigest returns the committed digest of the workload at the given
// seed, if one is pinned.
func pinnedDigest(workload string, seed uint64) (digest, bool, error) {
	var p pinnedDigests
	if err := json.Unmarshal(pinnedFile, &p); err != nil {
		return digest{}, false, fmt.Errorf("digests.json: %w", err)
	}
	if seed != p.Seed {
		return digest{}, false, nil
	}
	d, ok := p.Workloads[workload]
	return d, ok, nil
}

// counters are the simulated work counts read from one Result.Stats tree.
type counters struct {
	cycles       int64
	events       uint64
	instructions uint64
	cacheHits    uint64
	cacheMisses  uint64
	coherence    uint64 // BusRd + BusRdX + upgrades + cache-to-cache supplies
	busTxns      uint64
	messages     uint64 // injected by the network
	packets      uint64
	meanHops     float64
	sends, recvs uint64 // summed over the node interfaces
	maxBusy      int64  // the largest per-processor busy (or compute) time
	found        layer  // layers whose counters were present
}

// hops is the number of link traversals: every packet is routed once.
func (c *counters) hops() float64 { return c.meanHops * float64(c.packets) }

func (c *counters) cacheAccesses() uint64 { return c.cacheHits + c.cacheMisses }

func (c *counters) missRatio() float64 {
	if c.cacheAccesses() == 0 {
		return 0
	}
	return float64(c.cacheMisses) / float64(c.cacheAccesses())
}

// extract walks a Result.Stats tree and sums the counters by layer. The
// names are the ones the model's Stats() methods render.
func extract(res *machine.Result) counters {
	c := counters{cycles: int64(res.Cycles), events: res.Events, instructions: res.Instructions}
	var walk func(s *stats.Set)
	walk = func(s *stats.Set) {
		sum := func(dst *uint64, names ...string) {
			for _, n := range names {
				if v, ok := s.Get(n); ok {
					*dst += uint64(v)
				}
			}
		}
		has := func(name string) bool {
			_, ok := s.Get(name)
			return ok
		}
		switch {
		case s.Name == "coherence":
			sum(&c.coherence, "bus reads (BusRd)", "bus read-exclusives (BusRdX)",
				"upgrades (BusUpgr)", "cache-to-cache supplies")
		case s.Name == "bus" && has("transactions"):
			sum(&c.busTxns, "transactions")
			c.found |= layerBus
		case strings.HasPrefix(s.Name, "network ") && has("messages"):
			sum(&c.messages, "messages")
			sum(&c.packets, "packets")
			c.meanHops, _ = s.Get("mean hops")
			c.found |= layerNetwork
		}
		if has("hit ratio") {
			sum(&c.cacheHits, "hits")
			sum(&c.cacheMisses, "misses")
			c.found |= layerCache
		}
		if has("sends") {
			sum(&c.sends, "sends")
			sum(&c.recvs, "recvs")
		}
		if v, ok := s.Get("busy"); ok {
			c.maxBusy = max(c.maxBusy, int64(v))
			c.found |= layerCPU
		}
		if v, ok := s.Get("compute cycles"); ok {
			c.maxBusy = max(c.maxBusy, int64(v))
			c.found |= layerTask
		}
		for _, sub := range s.Subsets {
			walk(sub)
		}
	}
	walk(res.Stats)
	return c
}

// lost returns the packets the machine's network abandoned.
func lost(m *machine.Machine) uint64 {
	switch {
	case m.Compact() != nil:
		return m.Compact().Lost()
	case m.Sharded() != nil:
		return m.Sharded().Lost()
	case m.Network() != nil:
		return m.Network().Lost()
	}
	return 0
}

// checkResult verifies the model invariants of one result: the workload's
// layers all reported counters, every message sent was delivered or lost,
// and no processor was busy for longer than the run.
func checkResult(w *workload, m *machine.Machine, c counters) error {
	if missing := w.layers &^ c.found; missing != 0 {
		return fmt.Errorf("result has no counters for layers %s", layerNames(missing))
	}
	if w.layers&layerNetwork != 0 {
		if c.sends != c.messages {
			return fmt.Errorf("node interfaces sent %d messages, network injected %d", c.sends, c.messages)
		}
		if l := lost(m); c.recvs+l != c.messages {
			return fmt.Errorf("delivered %d + lost %d != sent %d messages", c.recvs, l, c.messages)
		}
		if c.messages == 0 {
			return fmt.Errorf("no messages sent")
		}
	}
	if c.maxBusy > c.cycles {
		return fmt.Errorf("a processor was busy %d cycles in a %d-cycle run", c.maxBusy, c.cycles)
	}
	if c.cycles <= 0 || c.events == 0 {
		return fmt.Errorf("empty run: %d cycles, %d events", c.cycles, c.events)
	}
	return nil
}

func layerNames(l layer) string {
	var names []string
	for _, n := range []struct {
		l    layer
		name string
	}{{layerCPU, "cpu"}, {layerCache, "cache"}, {layerBus, "bus"}, {layerNetwork, "network"}, {layerTask, "task"}} {
		if l&n.l != 0 {
			names = append(names, n.name)
		}
	}
	return strings.Join(names, ",")
}

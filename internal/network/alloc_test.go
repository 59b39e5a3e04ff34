package network

import (
	"testing"

	"mermaid/internal/pearl"
	"mermaid/internal/router"
	"mermaid/internal/topology"
)

// sink counts the messages completing at a node without matching them.
type sink struct{ got int }

func (s *sink) arrive(*Message) { s.got++ }

// With the probe and the collector off, forwarding packets must not
// allocate once the packet, release and kernel pools are warm: a message of
// four packets crosses two hops, queueing behind its own packets on every
// channel.
func TestAllocFreePacketForwarding(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, sw := range []router.Switching{router.StoreAndForward, router.VirtualCutThrough, router.Wormhole} {
		t.Run(sw.String(), func(t *testing.T) {
			k := pearl.NewKernel()
			cfg := ringConfig(sw)
			cfg.Router.MaxPacket = 64
			n := mustNet(t, k, cfg)
			dst := &sink{}
			n.rx[2] = dst
			msg := &Message{Src: 0, Dst: 2, Size: 256}
			send := func() {
				n.inject(msg)
				k.Run()
			}
			send()
			if got := testing.AllocsPerRun(100, send); got != 0 {
				t.Errorf("forwarding allocates %v times per message; want 0", got)
			}
			if dst.got != 102 || n.Packets() != 4*102 {
				t.Errorf("delivered %d messages in %d packets, want 102 in %d", dst.got, n.Packets(), 4*102)
			}
		})
	}
}

// The channel-slot bound must leave room for the largest machines the
// workbench is meant to model.
func TestChannelSlotBoundAdmitsLargeMachines(t *testing.T) {
	for _, tc := range []topology.Config{
		{Kind: topology.Dragonfly, Routers: 100, Globals: 10, Groups: 1000},
		{Kind: topology.Torus3D, DimX: 100, DimY: 100, DimZ: 100},
	} {
		tp, err := topology.New(tc)
		if err != nil {
			t.Fatal(err)
		}
		if slots := tp.Nodes() * tp.Degree(); slots > maxChannelSlots {
			t.Errorf("%s: %d channel slots exceed the bound %d", tp.Name(), slots, maxChannelSlots)
		}
	}
}

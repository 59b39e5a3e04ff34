// Package probe is the observability layer of the workbench: an
// always-compiled instrumentation surface that the architecture models feed
// while a simulation runs, standing in for the run-time half of Mermaid's
// visualisation and analysis tool suite (§2, Fig. 1).
//
// It has two outputs:
//
//   - A Timeline of span/instant events keyed by (component track, virtual
//     time), exported in the Chrome trace-event JSON format so a run opens
//     directly in Perfetto or chrome://tracing.
//   - A Registry of named metrics that components register their existing
//     stats counters into at construction, sampled into stats.Series from
//     the kernel's virtual-time sampling hook, with a CSV exporter.
//
// The layer is cheap when disabled: every method is safe on a nil receiver,
// components hold nil Timeline/Registry pointers when no probe is attached,
// and the disabled path performs no allocation — the kernel's zero-alloc
// gates keep passing with probe-aware components compiled in.
package probe

// Config selects which probe outputs are active.
type Config struct {
	// Timeline enables span/instant recording for the trace-event export.
	Timeline bool
	// SampleEvery keeps every Nth timeline event (per the global event
	// counter), bounding file size on long runs. Values below 1 mean 1
	// (keep everything).
	SampleEvery int
}

// Probe bundles the two instrumentation outputs. A nil *Probe is the
// disabled probe: all methods no-op and the accessors return nil.
type Probe struct {
	tl  *Timeline
	reg Registry
}

// New creates a probe. The registry is always available; the timeline is
// allocated only when cfg.Timeline is set.
func New(cfg Config) *Probe {
	p := &Probe{}
	if cfg.Timeline {
		every := cfg.SampleEvery
		if every < 1 {
			every = 1
		}
		p.tl = newTimeline(uint64(every))
	}
	return p
}

// Timeline returns the timeline recorder, or nil when the probe is nil or
// built without timeline tracing. Components store the result and emit spans
// only when it is non-nil.
func (p *Probe) Timeline() *Timeline {
	if p == nil {
		return nil
	}
	return p.tl
}

// Registry returns the metrics registry; nil for a nil probe (the nil
// *Registry accepts registrations as no-ops).
func (p *Probe) Registry() *Registry {
	if p == nil {
		return nil
	}
	return &p.reg
}

package machine

import (
	"fmt"
	"io"

	"mermaid/internal/pearl"
	"mermaid/internal/stats"
)

// Monitor samples machine-wide metrics at a fixed virtual-time interval
// while the simulation runs — the run-time half of the environment's
// visualisation support (§3); the collected series are the post-mortem half.
// The monitor stops itself when its sampling event is the only thing left on
// the kernel's schedule, so it never keeps a finished simulation alive.
type Monitor struct {
	Interval pearl.Time

	BusUtil  stats.Series // mean node-bus utilisation (cumulative)
	LinkUtil stats.Series // mean link utilisation (cumulative)
	Messages stats.Series // network messages delivered so far
	Events   stats.Series // kernel events processed so far

	m *Machine
}

// EnableMonitoring attaches a monitor sampling every interval cycles. Call
// before Run/RunProgram/RunStochastic.
func (m *Machine) EnableMonitoring(interval pearl.Time) (*Monitor, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("machine: monitor interval %d", interval)
	}
	if m.mon != nil {
		return nil, fmt.Errorf("machine: monitor already enabled")
	}
	if m.group != nil {
		// The sampling event would land on one shard's schedule and shift
		// its window sequence, breaking shard-count invariance.
		return nil, fmt.Errorf("machine: live monitoring is not supported with shards")
	}
	mon := &Monitor{Interval: interval, m: m}
	mon.BusUtil.Name = "bus utilization"
	mon.LinkUtil.Name = "link utilization"
	mon.Messages.Name = "messages"
	mon.Events.Name = "kernel events"
	m.mon = mon
	m.k.After(interval, mon.sample)
	return mon, nil
}

// Monitor returns the attached monitor, or nil.
func (m *Machine) Monitor() *Monitor { return m.mon }

func (mon *Monitor) sample() {
	m := mon.m
	now := int64(m.k.Now())

	var busU float64
	if len(m.nodes) > 0 {
		for _, nd := range m.nodes {
			busU += nd.Hierarchy().Bus().Utilization()
		}
		busU /= float64(len(m.nodes))
	}
	mon.BusUtil.Append(now, busU)
	if m.net != nil {
		avg, _ := m.net.LinkUtilization()
		mon.LinkUtil.Append(now, avg)
		mon.Messages.Append(now, float64(m.net.Messages()))
	}
	mon.Events.Append(now, float64(m.k.EventCount()))

	// The sampling event has just been popped: if nothing else is scheduled,
	// the simulation proper is finished — the sample just taken is the
	// end-of-run one, so stop rescheduling. (Sampling before this check means
	// the final interval of every run appears in the series; a run shorter
	// than one interval still ends with exactly one sample instead of none.)
	if m.k.Idle() {
		return
	}
	m.k.After(mon.Interval, mon.sample)
}

// Render writes the monitor's series as sparklines with summary statistics.
func (mon *Monitor) Render(w io.Writer) error {
	for _, s := range []*stats.Series{&mon.BusUtil, &mon.LinkUtil, &mon.Messages, &mon.Events} {
		if s.Len() == 0 {
			continue
		}
		min, mean, max := s.Summary()
		if _, err := fmt.Fprintf(w, "%-18s %s  (min %s, mean %s, max %s, %d samples)\n",
			s.Name, stats.Sparkline(s.V),
			stats.FormatFloat(min), stats.FormatFloat(mean), stats.FormatFloat(max), s.Len()); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the sampled series as CSV (time plus one column per
// series) for post-mortem analysis in external tools.
func (mon *Monitor) RenderCSV(w io.Writer) error {
	series := []*stats.Series{&mon.BusUtil, &mon.LinkUtil, &mon.Messages, &mon.Events}
	tb := stats.NewTable("cycle", "bus_util", "link_util", "messages", "events")
	n := mon.Events.Len()
	for i := 0; i < n; i++ {
		row := make([]any, 5)
		row[0] = mon.Events.T[i]
		for j, s := range series {
			if i < s.Len() {
				row[j+1] = s.V[i]
			} else {
				row[j+1] = ""
			}
		}
		tb.Row(row...)
	}
	return tb.RenderCSV(w)
}

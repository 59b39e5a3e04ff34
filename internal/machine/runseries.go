package machine

import (
	"fmt"
	"io"

	"mermaid/internal/pearl"
	"mermaid/internal/stats"
)

// RunSeries reads machine-wide metrics into time series while the
// simulation runs — the run-time half of the environment's visualisation
// support (§3); the collected series are the post-mortem half. It is a plain
// reader: attach its Sample to the kernel's sampling hook,
//
//	rs := machine.NewRunSeries(m)
//	err := m.Kernel().Sample(every, rs.Sample)
//
// and the series end with the end-of-run state without the sampling
// changing the run.
type RunSeries struct {
	BusUtil  stats.Series // mean node-bus utilisation (cumulative)
	LinkUtil stats.Series // mean link utilisation (cumulative)
	Messages stats.Series // network messages delivered so far
	Events   stats.Series // kernel events processed so far

	m *Machine
}

// NewRunSeries returns an empty reader of m's run-time series.
func NewRunSeries(m *Machine) *RunSeries {
	rs := &RunSeries{m: m}
	rs.BusUtil.Name = "bus utilization"
	rs.LinkUtil.Name = "link utilization"
	rs.Messages.Name = "messages"
	rs.Events.Name = "kernel events"
	return rs
}

// Sample appends the machine's current values, stamped with virtual time at.
func (rs *RunSeries) Sample(at pearl.Time) {
	m := rs.m
	now := int64(at)
	var busU float64
	if len(m.nodes) > 0 {
		for _, nd := range m.nodes {
			busU += nd.Hierarchy().Bus().Utilization()
		}
		busU /= float64(len(m.nodes))
	}
	rs.BusUtil.Append(now, busU)
	if m.net != nil {
		avg, _ := m.net.LinkUtilization()
		rs.LinkUtil.Append(now, avg)
		rs.Messages.Append(now, float64(m.net.Messages()))
	}
	rs.Events.Append(now, float64(m.k.EventCount()))
}

// Render writes the series as sparklines with summary statistics.
func (rs *RunSeries) Render(w io.Writer) error {
	for _, s := range []*stats.Series{&rs.BusUtil, &rs.LinkUtil, &rs.Messages, &rs.Events} {
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

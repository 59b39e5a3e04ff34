package hostprobe

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"mermaid/internal/pearl"
	"mermaid/internal/probe"
)

// ShardSpans wires the parallel engine's window execution into the trace:
// one "shard.N" track per shard, one span per barrier window, so a sharded
// run's wall-clock schedule opens in Perfetto next to its virtual-time
// timeline. Call before group.Run; a nil trace leaves the group unhooked.
func ShardSpans(t *Trace, group *pearl.ShardGroup) {
	if t == nil || group == nil {
		return
	}
	tracks := make([]probe.Track, group.Shards())
	for i := range tracks {
		tracks[i] = t.Track(fmt.Sprintf("shard.%d", i))
	}
	group.SetWindowSpanHook(func(sp pearl.WindowSpan) {
		// A constant span name keeps the hook allocation-light; window
		// number and virtual bounds are recoverable from span order and the
		// probe timeline.
		t.Span(tracks[sp.Shard], "window", sp.Start, sp.End)
	})
}

// shardRow is one shard's rendered load, used for both the table and the
// imbalance ranking.
type shardRow struct {
	shard      int
	busy, wait time.Duration
	busyPct    float64
	events     uint64
	sent       uint64
}

func shardRows(tel *pearl.ShardTelemetry) []shardRow {
	rows := make([]shardRow, len(tel.Shards))
	for i := range tel.Shards {
		ld := &tel.Shards[i]
		total := ld.Busy + ld.Wait
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(ld.Busy) / float64(total)
		}
		rows[i] = shardRow{shard: i, busy: ld.Busy, wait: ld.Wait, busyPct: pct,
			events: ld.Events, sent: ld.Sent}
	}
	return rows
}

// WriteShardReport renders the parallel-efficiency section: per-shard busy
// and barrier-wait shares, a ranked imbalance summary, the window
// histograms, and the cross-shard traffic matrix. This is host-side output
// — wall-clock, different on every run — so callers print it separately
// from the deterministic simulation report (the CLI uses stderr).
func WriteShardReport(w io.Writer, tel *pearl.ShardTelemetry) error {
	if tel == nil || len(tel.Shards) == 0 {
		return nil
	}
	ew := &errWriter{w: w}
	ew.printf("parallel efficiency: %.1f%% over %d shards (lookahead %d cyc, %d windows, wall %v)\n",
		100*tel.Efficiency(), len(tel.Shards), tel.Lookahead, tel.Windows, tel.Wall.Round(time.Millisecond))

	rows := shardRows(tel)
	ew.printf("  %-6s %7s %7s %12s %12s %10s\n", "shard", "busy%", "wait%", "busy", "events", "sent")
	for _, r := range rows {
		ew.printf("  %-6d %6.1f%% %6.1f%% %12v %12d %10d\n",
			r.shard, r.busyPct, 100-r.busyPct, r.busy.Round(time.Microsecond), r.events, r.sent)
	}

	// Ranked imbalance: shards ordered busiest-first; the spread between the
	// extremes is what shard-count or partition tuning should close.
	ranked := append([]shardRow(nil), rows...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].busyPct > ranked[j].busyPct })
	busiest, idlest := ranked[0], ranked[len(ranked)-1]
	ew.printf("  imbalance: busiest shard %d (%.1f%% busy), idlest shard %d (%.1f%%), spread %.1f pt; rank:",
		busiest.shard, busiest.busyPct, idlest.shard, idlest.busyPct, busiest.busyPct-idlest.busyPct)
	for _, r := range ranked {
		ew.printf(" %d", r.shard)
	}
	ew.printf("\n")

	writeLogHist(ew, "window advance (cyc)", &tel.Advance)
	writeLogHist(ew, "events/window", &tel.WindowEvents)

	n := len(tel.Shards)
	var crossTotal uint64
	for _, c := range tel.Traffic {
		crossTotal += c
	}
	ew.printf("  cross-shard events: %d total\n", crossTotal)
	if crossTotal > 0 && n <= 16 {
		ew.printf("  mailbox traffic (src row -> dst col):\n")
		for src := 0; src < n; src++ {
			var b strings.Builder
			fmt.Fprintf(&b, "    %2d:", src)
			for dst := 0; dst < n; dst++ {
				fmt.Fprintf(&b, " %8d", tel.Traffic[src*n+dst])
			}
			ew.printf("%s\n", b.String())
		}
	}
	return ew.err
}

// writeLogHist renders one log2 histogram as bucket rows with a proportional
// bar, mean and max.
func writeLogHist(ew *errWriter, label string, h *pearl.LogHist) {
	if h.Count == 0 {
		ew.printf("  %s: no observations\n", label)
		return
	}
	ew.printf("  %s: mean %.1f, min %d, max %d over %d windows\n",
		label, h.Mean(), h.MinV, h.MaxV, h.Count)
	lo, hi := h.BucketRange()
	var peak uint64
	for i := lo; i < hi; i++ {
		if h.Buckets[i] > peak {
			peak = h.Buckets[i]
		}
	}
	for i := lo; i < hi; i++ {
		blo, bhi := h.BucketBounds(i)
		bar := int(40 * h.Buckets[i] / peak)
		ew.printf("    [%10d, %10d) %8d %s\n", blo, bhi, h.Buckets[i], strings.Repeat("#", bar))
	}
}

// RegisterShardStats exposes the telemetry as gauges under stable dotted
// names ("host.shard0.busy", "host.windows", ...), so the parallel engine's
// efficiency can be written in Prometheus text form by
// analysis.WriteRegistryMetrics, through the same exposition writer that
// serves per-job scopes. Durations are reported in seconds, the Prometheus
// convention.
func RegisterShardStats(reg *probe.Registry, tel *pearl.ShardTelemetry) {
	if reg == nil || tel == nil {
		return
	}
	reg.Gauge("host.shards", "", func() float64 { return float64(len(tel.Shards)) })
	reg.Gauge("host.lookahead", "cyc", func() float64 { return float64(tel.Lookahead) })
	reg.Gauge("host.windows", "", func() float64 { return float64(tel.Windows) })
	reg.Gauge("host.wall", "s", func() float64 { return tel.Wall.Seconds() })
	reg.Gauge("host.efficiency", "", tel.Efficiency)
	reg.Gauge("host.window.advance.mean", "cyc", tel.Advance.Mean)
	reg.Gauge("host.window.events.mean", "", tel.WindowEvents.Mean)
	for i := range tel.Shards {
		ld := &tel.Shards[i]
		prefix := fmt.Sprintf("host.shard%d.", i)
		reg.Gauge(prefix+"busy", "s", func() float64 { return ld.Busy.Seconds() })
		reg.Gauge(prefix+"wait", "s", func() float64 { return ld.Wait.Seconds() })
		reg.Gauge(prefix+"events", "", func() float64 { return float64(ld.Events) })
		reg.Gauge(prefix+"sent", "", func() float64 { return float64(ld.Sent) })
	}
}

// errWriter folds write errors so the report loop stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

package probe

import (
	"io"

	"mermaid/internal/pearl"
	"mermaid/internal/stats"
)

// Entry is one registered metric: a stable dotted name, a unit, and a read
// function evaluated on demand (dump) or periodically (Sample, called from
// the kernel's sampling hook).
type Entry struct {
	Name string
	Unit string
	Read func() float64
	// Series collects the periodic samples Sample appends.
	Series stats.Series
}

// Registry is the central metrics directory: components register their
// existing counters under stable, greppable dotted names (e.g.
// "node0.cpu0.L1.misses") at construction time. A nil *Registry accepts
// every call as a no-op, so components register unconditionally.
//
// Registration order is preserved; re-registering a name replaces its
// reader, keeping the original position.
type Registry struct {
	entries []*Entry
	index   map[string]int
}

// Gauge registers a metric read through fn.
func (r *Registry) Gauge(name, unit string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	if r.index == nil {
		r.index = make(map[string]int)
	}
	if i, ok := r.index[name]; ok {
		r.entries[i].Unit = unit
		r.entries[i].Read = fn
		return
	}
	e := &Entry{Name: name, Unit: unit, Read: fn}
	e.Series.Name = name
	r.index[name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// Counter registers a stats.Counter under the given name.
func (r *Registry) Counter(name string, c *stats.Counter) {
	if r == nil || c == nil {
		return
	}
	r.Gauge(name, "", func() float64 { return float64(c.Value()) })
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.entries)
}

// Entries returns the registered metrics in registration order.
func (r *Registry) Entries() []*Entry {
	if r == nil {
		return nil
	}
	return r.entries
}

// Lookup returns the entry registered under name, or nil.
func (r *Registry) Lookup(name string) *Entry {
	if r == nil {
		return nil
	}
	if i, ok := r.index[name]; ok {
		return r.entries[i]
	}
	return nil
}

// Sample appends the current value of every metric to its series, stamped
// with virtual time at.
func (r *Registry) Sample(at pearl.Time) {
	if r == nil {
		return
	}
	for _, e := range r.entries {
		e.Series.Append(int64(at), e.Read())
	}
}

// Dump evaluates every metric now and returns them as one flat stats.Set
// named "registry", in registration order — the stable-name counterpart of
// the per-component Stats() trees.
func (r *Registry) Dump() *stats.Set {
	if r == nil {
		return nil
	}
	s := stats.NewSet("registry")
	for _, e := range r.entries {
		s.Put(e.Name, e.Read(), e.Unit)
	}
	return s
}

// WriteCSV exports the sampled series as CSV: a cycle column followed by
// one column per registered metric. Without any Sample call it writes only
// the header.
func (r *Registry) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	header := make([]string, 0, len(r.entries)+1)
	header = append(header, "cycle")
	for _, e := range r.entries {
		header = append(header, e.Name)
	}
	tb := stats.NewTable(header...)
	n := 0
	for _, e := range r.entries {
		if e.Series.Len() > n {
			n = e.Series.Len()
		}
	}
	for i := 0; i < n; i++ {
		row := make([]any, len(r.entries)+1)
		for j, e := range r.entries {
			if i < e.Series.Len() {
				row[0] = e.Series.T[i]
				row[j+1] = e.Series.V[i]
			} else {
				row[j+1] = ""
			}
		}
		tb.Row(row...)
	}
	return tb.RenderCSV(w)
}

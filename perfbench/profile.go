package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Host-time shares: every CPU-profile sample is charged to exactly one
// bucket, so the shares of a profile sum to 1.
var shareBuckets = []string{"sched", "gc", "pearl", "trace", "cpu", "cache", "bus_memory", "network", "other"}

// packageBucket maps the model's packages to their bucket; any package not
// listed (machine, stats, probe, the benchmark itself, ...) is "other".
var packageBucket = map[string]string{
	"mermaid/internal/pearl":      "pearl",
	"mermaid/internal/trace":      "trace",
	"mermaid/internal/annotate":   "trace",
	"mermaid/internal/stochastic": "trace",
	"mermaid/internal/workload":   "trace",
	"mermaid/internal/ops":        "trace",
	"mermaid/internal/cpu":        "cpu",
	"mermaid/internal/node":       "cpu",
	"mermaid/internal/cache":      "cache",
	"mermaid/internal/bus":        "bus_memory",
	"mermaid/internal/memory":     "bus_memory",
	"mermaid/internal/network":    "network",
	"mermaid/internal/router":     "network",
	"mermaid/internal/topology":   "network",
}

// Runtime functions by what they do: allocation and collection, or
// goroutine scheduling and channel handoff. Matched as substrings.
var (
	gcFuncs = []string{"gc", "malloc", "sweep", "scav", "scanobject", "scanblock", "scanstack",
		"scanframe", "markroot", "greyobject", "mheap", "mcache", "mcentral", "mspan",
		"newobject", "newarray", "makeslice", "growslice", "WriteBarrier", "wbBuf",
		"bulkBarrier", "heapBits", "heapSetType", "findObject", "TheWorld", "persistentalloc", "_GC"}
	schedFuncs = []string{"chan", "park", "sched", "ready", "findRunnable", "runq", "futex",
		"notesleep", "notewakeup", "mcall", "gogo", "lock", "stealWork", "netpoll",
		"wakep", "startm", "stopm", "handoffp", "sysmon", "select", "casgstatus", "execute",
		"osyield", "usleep", "procyield", "sema", "coro", "newproc", "mstart", "acquirep",
		"releasep", "syscall", "spinning", "imers", "_System"}
)

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

func matchAny(name string, subs []string) bool {
	for _, s := range subs {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// packageOf returns the import path of a fully qualified Go function name
// such as "mermaid/internal/cache.(*Port).Access" or "runtime.chansend1".
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i] // a receiver or type argument may hold '/' and '.'
	}
	slash := strings.LastIndexByte(head, '/')
	if dot := strings.IndexByte(head[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return head
}

// bucketOf charges one sample, given its stack leaf first. The runtime
// frames on top of the stack decide first: allocation or collection
// anywhere among them is "gc", else scheduling or channel handoff is
// "sched". Otherwise the sample goes to the innermost model package,
// skipping other standard-library frames (a map lookup inside the cache
// model is cache time).
func bucketOf(stack []string) string {
	top := 0
	for top < len(stack) && isRuntime(packageOf(stack[top])) {
		top++
	}
	for _, class := range []struct {
		bucket string
		funcs  []string
	}{{"gc", gcFuncs}, {"sched", schedFuncs}} {
		for _, fn := range stack[:top] {
			if matchAny(fn[len(packageOf(fn)):], class.funcs) {
				return class.bucket
			}
		}
	}
	for _, fn := range stack[top:] {
		pkg := packageOf(fn)
		if b, ok := packageBucket[pkg]; ok {
			return b
		}
		if strings.HasPrefix(pkg, "mermaid/") || pkg == "main" {
			return "other"
		}
	}
	return "other"
}

// profileShares decodes gzipped pprof CPU profiles and returns the share of
// sampled CPU time per bucket, plus the total sampled nanoseconds.
func profileShares(profiles ...[]byte) (map[string]float64, int64, error) {
	weight := map[string]int64{}
	var total int64
	for _, raw := range profiles {
		samples, err := decodeProfile(raw)
		if err != nil {
			return nil, 0, err
		}
		for _, s := range samples {
			weight[bucketOf(s.stack)] += s.value
			total += s.value
		}
	}
	shares := make(map[string]float64, len(shareBuckets))
	for _, b := range shareBuckets {
		if total > 0 {
			shares[b] = float64(weight[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	return shares, total, nil
}

// sample is one profile sample: its stack of function names, leaf first,
// and its CPU time.
type sample struct {
	stack []string
	value int64
}

// decodeProfile reads the parts of a gzipped profile.proto message that
// attribution needs: samples, locations, functions and the string table.
// Field numbers are those of github.com/google/pprof/proto/profile.proto.
func decodeProfile(raw []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		strs      []string
		typeNames []int64 // sample_type string indexes
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
	)
	err = forFields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return forFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := forFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return packed(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return forFields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// Charge CPU time ("cpu", nanoseconds) when present, else the first value.
	vi := 0
	for i, t := range typeNames {
		if str(t) == "cpu" {
			vi = i
		}
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample without a value")
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				stack = append(stack, str(funcNames[f]))
			}
		}
		out = append(out, sample{stack: stack, value: s.values[vi]})
	}
	return out, nil
}

// forFields calls fn for every field of a protobuf message: v is the value
// of a varint field, b the payload of a length-delimited one.
func forFields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a repeated varint field given either one unpacked value v
// (b == nil) or a packed payload b.
func packed(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

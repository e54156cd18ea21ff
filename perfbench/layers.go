package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// layers are the buckets host cost is split into, named after the
// simulator's packages.
var layers = []string{
	"sim", "rng", "workload", "graph", "server", "connpool", "lb", "resilience",
	"metrics", "trace", "monitor", "bus", "controller", "core", "model", "runtime", "other",
}

// packageLayer maps a dcm/internal package to its layer. Packages not
// listed (experiments, invariant, policy, degrade, ...) go to "other".
var packageLayer = map[string]string{
	"sim": "sim", "rng": "rng", "workload": "workload",
	"graph": "graph", "ntier": "graph",
	"server": "server", "connpool": "connpool", "lb": "lb", "resilience": "resilience",
	"metrics": "metrics", "trace": "trace", "monitor": "monitor", "bus": "bus",
	"controller": "controller", "core": "core", "cloud": "core", "actuator": "core",
	"model": "model",
}

const modulePrefix = "dcm/internal/"

// layerOf charges a stack, listed leaf first, to one layer. Background GC,
// sweeping and scavenging go to "runtime". Otherwise the sample goes to the
// first dcm/internal frame found walking up from the leaf, so allocation,
// map and fmt work land on the layer that asked for it. The driver's own
// frames (package main) and stacks with no dcm frame go to "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC":
			return "runtime"
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			if l, ok := packageLayer[rest]; ok {
				return l
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
	}
	return "other"
}

// sample is one profile sample: a leaf-first stack and its value.
type sample struct {
	stack []string
	value int64
}

// attribution is a profile split by layer.
type attribution struct {
	byLayer map[string]int64
	total   int64 // sum of every sample's value
	malloc  int64 // value of samples with runtime.mallocgc on the stack
}

func attribute(samples []sample) attribution {
	a := attribution{byLayer: make(map[string]int64, len(layers))}
	for _, s := range samples {
		a.byLayer[layerOf(s.stack)] += s.value
		a.total += s.value
		for _, fn := range s.stack {
			if fn == "runtime.mallocgc" {
				a.malloc += s.value
				break
			}
		}
	}
	return a
}

// checkTotals reports a sample lost or double-counted by the bucketing.
func (a attribution) checkTotals() error {
	var sum int64
	for _, v := range a.byLayer {
		sum += v
	}
	if sum != a.total {
		return fmt.Errorf("layer totals %d != profile total %d", sum, a.total)
	}
	return nil
}

// allocSnapshot is the cumulative allocation profile, by stack.
type allocSnapshot map[[32]uintptr]int64

// takeAllocSnapshot reads the allocation profile. The runtime publishes
// allocations at the end of a GC cycle, so callers run runtime.GC first.
func takeAllocSnapshot() allocSnapshot {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(allocSnapshot, len(recs))
	for _, r := range recs {
		snap[r.Stack0] += r.AllocObjects
	}
	return snap
}

// allocSamples returns the objects allocated between two snapshots, one
// sample per stack.
func allocSamples(before, after allocSnapshot) []sample {
	var out []sample
	for key, n := range after {
		d := n - before[key]
		if d <= 0 {
			continue
		}
		var pcs []uintptr
		for _, pc := range key {
			if pc == 0 {
				break
			}
			pcs = append(pcs, pc)
		}
		var stack []string
		frames := runtime.CallersFrames(pcs)
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		out = append(out, sample{stack: stack, value: d})
	}
	return out
}

// cpuSamples decodes a gzipped pprof CPU profile into samples valued in
// sample counts. Only the fields the bucketing needs are read.
func cpuSamples(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples     []rawSample
		sampleTypes []uint64 // string index of each value's type
		strs        []string
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id -> name string index
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return pbFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return pbRepeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbRepeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
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
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	valueIdx := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "samples" {
			valueIdx = i
		}
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			return nil, errors.New("cpu profile: sample without a count")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		out = append(out, sample{stack: stack, value: s.values[valueIdx]})
	}
	return out, nil
}

// pbFields calls fn for each field of a protobuf message: v carries a
// varint (or fixed) value, b a length-delimited payload.
func pbFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := pbVarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated reads a repeated varint field given either unpacked (v) or
// packed (b).
func pbRepeated(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

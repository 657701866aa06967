package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run attributes CPU-profile samples to the program's layers.
// runtime/pprof writes a gzipped profile.proto; the decoder below reads
// only the fields attribution needs (samples, locations, functions and the
// string table), so the benchmark needs no module beyond the standard
// library.

// profSample is one stack (innermost frame first) and the CPU time it got.
type profSample struct {
	stack []string
	ns    int64
}

// pbField is one decoded protobuf field: a varint/fixed value or bytes.
type pbField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("profile: bad varint")
}

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.val, n, err = pbVarint(b)
			if err != nil {
				return nil, err
			}
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			n = 8
		case 2:
			l, m, err := pbVarint(b)
			if err != nil {
				return nil, err
			}
			if uint64(len(b)-m) < l {
				return nil, errors.New("profile: short bytes field")
			}
			f.data = b[m : m+int(l)]
			n = m + int(l)
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			n = 4
		default:
			return nil, fmt.Errorf("profile: wire type %d", f.wire)
		}
		b = b[n:]
		out = append(out, f)
	}
	return out, nil
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.val}, nil
	}
	var out []uint64
	b := f.data
	for len(b) > 0 {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseCPUProfile decodes a runtime/pprof CPU profile into stacks of
// function names with their CPU nanoseconds.
func parseCPUProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		units     []uint64 // sample_type unit string indexes
		rawSample [][]pbField
		funcName  = map[uint64]uint64{} // function id -> name string index
		locFuncs  = map[uint64][]uint64{}
	)
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		if f.num == 6 { // string_table
			strs = append(strs, string(f.data))
			continue
		}
		sub, err := pbFields(f.data)
		if err != nil {
			return nil, err
		}
		switch f.num {
		case 1: // sample_type
			for _, g := range sub {
				if g.num == 2 {
					units = append(units, g.val)
				}
			}
		case 2: // sample
			rawSample = append(rawSample, sub)
		case 4: // location
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.val
				case 4: // line: innermost inlined call first
					line, err := pbFields(g.data)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
			}
			funcName[id] = name
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	nsIndex := -1
	for i, u := range units {
		if str(u) == "nanoseconds" {
			nsIndex = i
		}
	}
	if nsIndex < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	out := make([]profSample, 0, len(rawSample))
	for _, fields := range rawSample {
		var s profSample
		var values []uint64
		for _, g := range fields {
			vs, err := pbInts(g)
			if err != nil {
				return nil, err
			}
			switch g.num {
			case 1:
				for _, loc := range vs {
					for _, fn := range locFuncs[loc] {
						s.stack = append(s.stack, str(funcName[fn]))
					}
				}
			case 2:
				values = append(values, vs...)
			}
		}
		if nsIndex < len(values) {
			s.ns = int64(values[nsIndex])
		}
		out = append(out, s)
	}
	return out, nil
}

// layerByPackage charges each program package to a layer. binpack serves
// the shim, and topo, faults and experiments build scenarios. analysis,
// trace and model are absent on purpose: no workload runs them.
var layerByPackage = map[string]string{
	"hwatch/internal/sim":           "sim",
	"hwatch/internal/netem":         "netem",
	"hwatch/internal/tcp":           "tcp",
	"hwatch/internal/aqm":           "aqm",
	"hwatch/internal/core":          "core",
	"hwatch/internal/binpack":       "core",
	"hwatch/internal/scenario":      "scenario",
	"hwatch/internal/topo":          "scenario",
	"hwatch/internal/faults":        "scenario",
	"hwatch/internal/experiments":   "scenario",
	"hwatch/internal/workload":      "workload",
	"hwatch/internal/stats":         "stats",
	"hwatch/internal/harness":       "harness",
	"hwatch/internal/server":        "server",
	"hwatch/internal/server/client": "server",
	"hwatch/perfbench":              "bench",
}

// gcFramePrefixes mark runtime frames that do garbage-collection work:
// background mark workers, mark assists, sweeping, scavenging and write
// barriers.
var gcFramePrefixes = []string{
	"runtime.gc", // gcBgMarkWorker, gcAssistAlloc, gcDrain, gcWriteBarrier, gcStart, ...
	"runtime.wbBuf",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.markroot",
	"runtime.scanobject",
	"runtime.greyobject",
	"runtime.sweepone",
	"runtime.(*gcWork)",
	"runtime.(*mspan).sweep",
	"runtime.(*sweepLocked).sweep",
}

// funcPackage extracts the import path from a profile function name such
// as "hwatch/internal/sim.(*Engine).Run" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations carry type arguments
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf charges a stack (innermost frame first) to one layer: gc when
// any frame does collector work, else the layer of the innermost program
// frame (a standard-library frame counts toward the program frame above
// it), else "other" (scheduler, network poller, HTTP plumbing).
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if l, ok := layerByPackage[pkg]; ok {
			return l
		}
		if pkg == "hwatch" || strings.HasPrefix(pkg, "hwatch/") {
			return "other" // a program package no layer claims
		}
	}
	return "other"
}

// selfSeconds sums CPU seconds per layer.
func selfSeconds(samples []profSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[layerOf(s.stack)] += float64(s.ns) / 1e9
	}
	return out
}

package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// perftools.profiles.Profile protobuf) far enough to attribute each sample to
// a layer: sample stacks, locations with their inlined lines, functions and
// the string table. Everything else in the message is skipped.

type pfLine struct{ fn uint64 }

type pfFunction struct {
	name, file int64 // string table indices
}

type pfSample struct {
	locs   []uint64 // leaf first
	values []int64
}

type profile struct {
	samples   []pfSample
	locations map[uint64][]pfLine // innermost inlined frame first
	functions map[uint64]pfFunction
	strings   []string
}

// frame is one resolved stack entry.
type frame struct{ name, file string }

// stack resolves a sample's frames, leaf first, inlined frames expanded.
func (p *profile) stack(s pfSample) []frame {
	var out []frame
	for _, id := range s.locs {
		for _, l := range p.locations[id] {
			f := p.functions[l.fn]
			out = append(out, frame{name: p.str(f.name), file: p.str(f.file)})
		}
	}
	return out
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]pfLine{}, functions: map[uint64]pfFunction{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s pfSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var lines []pfLine
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					var l pfLine
					err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							l.fn = v
						}
						return nil
					})
					lines = append(lines, l)
					return err
				}
				return nil
			})
			p.locations[id] = lines
			return err
		case 5: // function
			var id uint64
			var f pfFunction
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			p.functions[id] = f
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends a repeated scalar field's values, in either the
// packed (length-delimited) or the unpacked (one varint) encoding.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Layers, in report order. Every CPU sample lands in exactly one.
var layers = []string{
	"sim.queue", "sim.engine", "router", "channel", "netiface", "routing",
	"congestion", "xbar_alloc", "types", "workload", "stats", "gc",
	"telemetry", "other",
}

// gcRoots are runtime functions whose presence anywhere in a stack marks the
// sample as garbage-collector work: background marking and sweeping, and the
// mark assists and sweep credit charged to allocating goroutines.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.deductSweepCredit", "runtime._GC",
}

// classify assigns a sample's stack to a layer. Garbage-collector work goes
// to gc. Otherwise the leaf-most frame in the repository's own packages
// decides, by package and, inside internal/sim and internal/router, by file:
// runtime and standard-library frames (map lookups, memmove, allocation) are
// charged to the repository function that called them. A stack with no
// repository frame is other.
func classify(st []frame) string {
	for _, f := range st {
		for _, g := range gcRoots {
			if f.name == g {
				return "gc"
			}
		}
	}
	for _, f := range st {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	return "other"
}

// layerOf maps one frame to its layer, or "" for a frame outside the
// repository's simulator packages.
func layerOf(f frame) string {
	pkg := funcPackage(f.name)
	base := f.file[strings.LastIndexByte(f.file, '/')+1:]
	switch {
	case pkg == "supersim/internal/sim":
		if base == "parallel.go" {
			return "sim.engine"
		}
		return "sim.queue"
	case pkg == "supersim/internal/router":
		if base == "xbarsched.go" {
			return "xbar_alloc"
		}
		return "router"
	case pkg == "supersim/internal/crossbar", pkg == "supersim/internal/allocator",
		pkg == "supersim/internal/arbiter":
		return "xbar_alloc"
	case pkg == "supersim/internal/channel":
		return "channel"
	case pkg == "supersim/internal/netiface":
		return "netiface"
	case pkg == "supersim/internal/routing", strings.HasPrefix(pkg, "supersim/internal/network"):
		return "routing"
	case pkg == "supersim/internal/congestion":
		return "congestion"
	case pkg == "supersim/internal/types":
		return "types"
	case pkg == "supersim/internal/workload", pkg == "supersim/internal/workload/apps",
		pkg == "supersim/internal/traffic":
		return "workload"
	case pkg == "supersim/internal/stats":
		return "stats"
	case pkg == "supersim/internal/telemetry":
		return "telemetry"
	}
	return ""
}

// funcPackage returns the import path of a symbol such as
// "supersim/internal/sim.(*eventHeap).pop".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layerTimes sums a profile's CPU nanoseconds per layer.
func layerTimes(p *profile, into map[string]int64) {
	for _, s := range p.samples {
		if len(s.values) < 2 {
			continue
		}
		into[classify(p.stack(s))] += s.values[1]
	}
}

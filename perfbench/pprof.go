package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// sharePackages are the rows of the CPU attribution: the simulator's
// packages, encoding/json (the result cache's envelopes), the Go
// runtime's own goroutines (garbage collector and scheduler) and
// everything else.
var sharePackages = []string{
	"pipeline", "prefetcher", "btb", "cache", "bpu", "exec", "rng", "u64table",
	"stepcast", "check", "telemetry", "core", "twigopt", "profile", "program",
	"workload", "runner", "experiments", "json", "runtime", "other",
}

// packageShares reads a gzipped pprof CPU profile and returns each
// sharePackages row's percentage of the sampled CPU time, and the
// number of samples. Each sample is charged to the innermost function
// outside the runtime, so that map accesses, allocation and GC assists
// count against the package that called them; samples with no such
// function (background GC, the scheduler) form the runtime row.
func packageShares(data []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	known := map[string]bool{}
	for _, pkg := range sharePackages {
		known[pkg] = true
	}
	byPkg := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		pkg := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				if name, ok := p.functions[fn]; ok {
					if short := shortPackage(p.strings[name]); short != "runtime" {
						pkg = short
						break frames
					}
				}
			}
		}
		if !known[pkg] {
			pkg = "other"
		}
		byPkg[pkg] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("CPU profile holds no samples")
	}
	shares := map[string]float64{}
	for _, pkg := range sharePackages {
		shares[pkg] = float64(byPkg[pkg]) / float64(total) * 100
	}
	return shares, len(p.samples), nil
}

// shortPackage maps a symbol name such as
// "twig/internal/pipeline.(*simulator).runTo" to its package's last
// path element ("pipeline"); the runtime's internal packages count as
// "runtime".
func shortPackage(symbol string) string {
	path := symbol
	slash := strings.LastIndex(path, "/")
	if dot := strings.Index(path[slash+1:], "."); dot >= 0 {
		path = path[:slash+1+dot]
	}
	if path == "runtime" || strings.HasPrefix(path, "runtime/") || strings.HasPrefix(path, "internal/runtime/") {
		return "runtime"
	}
	return path[strings.LastIndex(path, "/")+1:]
}

// cpuProfile is the part of a pprof profile the attribution needs.
type cpuProfile struct {
	samples   []cpuSample
	locations map[uint64][]uint64 // location ID -> function IDs, innermost first
	functions map[uint64]int64    // function ID -> name string index
	strings   []string
}

type cpuSample struct {
	locs  []uint64 // location IDs, innermost first
	value int64    // CPU nanoseconds (the last sample value)
}

// parseProfile decodes the profile.proto fields the attribution needs:
// Profile.sample (2), location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*cpuProfile, error) {
	p := &cpuProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s cpuSample
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, sub)
				case 2:
					if vals := appendVarints(nil, v, sub); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64 // one per line; inlined callees come first
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d out of range", name)
		}
	}
	return p, nil
}

// eachField calls f for every field of the protobuf message b with its
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, f func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("malformed protobuf key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch typ {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return fmt.Errorf("malformed protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("truncated protobuf fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("truncated protobuf field")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("truncated protobuf fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", typ)
		}
		if err := f(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, whether it was
// encoded as one value (sub nil) or packed.
func appendVarints(dst []uint64, v uint64, sub []byte) []uint64 {
	if sub == nil {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}

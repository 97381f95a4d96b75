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

// This file is a minimal reader for the gzipped protobuf profiles that
// runtime/pprof writes (github.com/google/pprof/proto/profile.proto). It
// decodes only what per-package self time needs — samples, locations,
// functions and the string table — so the harness adds no module
// dependency.

// cpuShares accumulates CPU samples by the layer of their leaf function.
type cpuShares struct {
	counts map[string]int64
	total  int64
}

func newCPUShares() *cpuShares { return &cpuShares{counts: map[string]int64{}} }

// share is the fraction of all samples attributed to layer pkg.
func (c *cpuShares) share(pkg string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.counts[pkg]) / float64(c.total)
}

// add decodes one profile and attributes its samples.
func (c *cpuShares) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		var stack []string // innermost first
		for _, id := range s.locs {
			for _, fn := range p.locFuncs[id] {
				idx := p.funcNames[fn]
				if idx < 0 || idx >= int64(len(p.strings)) {
					return errors.New("cpu profile: function name outside the string table")
				}
				stack = append(stack, p.strings[idx])
			}
		}
		if len(stack) == 0 {
			continue
		}
		c.counts[layerOf(stack)] += s.values[0]
		c.total += s.values[0]
	}
	return nil
}

// layerOf maps a sampled stack (innermost frame first) to a cpuPackages
// entry: the repository package of the leaf function; runtime_gc for
// runtime leaves under a collector entry point; runtime_other for any
// other runtime leaf; other for everything else (standard library and the
// repository's remaining packages).
func layerOf(stack []string) string {
	pkg := packageOf(stack[0])
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		for _, fn := range stack {
			for _, gc := range gcFrames {
				if strings.HasPrefix(fn, gc) {
					return "runtime_gc"
				}
			}
		}
		return "runtime_other"
	}
	const repo = "github.com/jockeysim/jockey/internal/"
	if name, ok := strings.CutPrefix(pkg, repo); ok {
		for _, p := range cpuPackages {
			if name == p {
				return p
			}
		}
	}
	return "other"
}

// gcFrames are the function-name prefixes of the collector's entry points:
// background and assist marking, sweeping, scavenging, write-barrier
// flushes, and the profiler's pseudo-frame for samples taken inside GC.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.wbBufFlush", "runtime._GC",
}

// packageOf returns the import path of a symbolized Go function name such
// as "github.com/x/y/pkg.(*T).m[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

type pbSample struct {
	locs   []uint64
	values []int64
}

type pbProfile struct {
	samples   []pbSample
	locFuncs  map[uint64][]uint64 // location ID → function IDs, innermost first
	funcNames map[uint64]int64    // function ID → string-table index
	strings   []string
}

// decodeProfile reads the profile.proto fields the attribution uses.
func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, sub []byte) error {
		switch {
		case field == 2 && wire == 2: // Sample
			var s pbSample
			err := eachField(sub, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, d)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case field == 4 && wire == 2: // Location
			var id uint64
			var funcs []uint64
			err := eachField(sub, func(f, w int, v uint64, d []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2: // Line
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 && lw == 0 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case field == 5 && wire == 2: // Function
			var id uint64
			var name int64
			err := eachField(sub, func(f, w int, v uint64, _ []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 2 && w == 0:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case field == 6 && wire == 2: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited payload.
func eachField(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, packed []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

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

// The CPU profile is reduced by module without the pprof tool: the
// functions below decode just the parts of the profile.proto message
// that name each sample's stack (samples, locations, functions and the
// string table).

const modulePrefix = "github.com/ytcdn-sim/ytcdn/internal/"

// gcFrames mark a sample as garbage-collector work wherever they appear
// in its stack.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot",
}

// moduleShares returns each module's share of the profile's samples,
// keyed "cpu.<module>", plus cpu.runtime_gc and cpu.other.
func moduleShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	listed := map[string]bool{}
	for _, m := range cpuModules {
		listed[m] = true
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		total += s.count
		counts[p.module(s.locs, listed)] += s.count
	}
	out := map[string]float64{}
	for _, m := range append(append([]string{}, cpuModules...), "runtime_gc", "other") {
		if total > 0 {
			out["cpu."+m] = float64(counts[m]) / float64(total)
		} else {
			out["cpu."+m] = 0
		}
	}
	return out, nil
}

type profSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

// module charges a stack (leaf first) to the garbage collector, to the
// nearest frame of a listed module, or to "other".
func (p *profile) module(stack []uint64, listed map[string]bool) string {
	var names []string
	for _, loc := range stack {
		for _, fn := range p.locs[loc] {
			if idx := p.funcs[fn]; idx >= 0 && int(idx) < len(p.strs) {
				names = append(names, p.strs[idx])
			}
		}
	}
	for _, n := range names {
		for _, gc := range gcFrames {
			if strings.HasPrefix(n, gc) {
				return "runtime_gc"
			}
		}
	}
	for _, n := range names {
		if !strings.HasPrefix(n, modulePrefix) {
			continue
		}
		pkg := strings.TrimPrefix(n, modulePrefix)
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if listed[pkg] {
			return pkg
		}
	}
	return "other"
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			var values []uint64
			if err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					values = appendPacked(values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locs[id] = fns
		case 5: // Function
			var id uint64
			name := int64(-1)
			if err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// fields walks one protobuf message, calling f with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

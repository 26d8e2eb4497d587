package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// layerOf maps a simulator package to the layer its self time is charged to.
var layerOf = map[string]string{
	"tpcb": "gen", "oltp": "gen", "kernel": "gen", "memref": "gen", "sim": "gen",
	"core":  "dispatch",
	"cache": "hierarchy", "coherence": "hierarchy", "rac": "hierarchy", "noc": "hierarchy", "mem": "hierarchy",
	"cpu": "accounting", "stats": "accounting",
}

// layers lists every group cpuByLayer can return, in report order.
var layers = []string{"gen", "dispatch", "hierarchy", "accounting", "runtime", "other"}

// layerOfFunc charges a function, by the package in its symbol name, to a
// layer: simulator packages by layerOf, the Go runtime (GC and allocation)
// to "runtime", and anything else to "other".
func layerOfFunc(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		pkg = fn[:slash+dot]
	}
	if name, ok := strings.CutPrefix(pkg, "oltpsim/internal/"); ok {
		if l, ok := layerOf[name]; ok {
			return l
		}
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// cpuByLayer decodes a gzipped pprof CPU profile and sums the CPU
// nanoseconds of the samples whose "span" label satisfies keep, by the layer
// of the leaf (self) function.
func cpuByLayer(profile []byte, keep func(span string) bool) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type sample struct {
		leafLoc uint64
		values  []int64
		labels  [][]byte
	}
	var (
		samples  []sample
		strs     []string
		kinds    []uint64 // string index of each sample value's type
		locFunc  = map[uint64]uint64{}
		funcName = map[uint64]uint64{}
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return pbFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					kinds = append(kinds, v)
				}
				return nil
			})
		case 2: // sample: location ids leaf first, values, labels
			var s sample
			locs := 0
			err := pbFields(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case 1:
					return pbInts(v, bb, func(x uint64) {
						if locs == 0 {
							s.leafLoc = x
						}
						locs++
					})
				case 2:
					return pbInts(v, bb, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					s.labels = append(s.labels, bb)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location: its first line is the innermost inlined function
			var id, fn uint64
			err := pbFields(b, func(f int, v uint64, bb []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && fn == 0:
					return pbFields(bb, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, k := range kinds {
		if str(k) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}

	out := make(map[string]int64)
	for _, s := range samples {
		span := ""
		for _, l := range s.labels {
			var key, val uint64
			if err := pbFields(l, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					key = v
				case 2:
					val = v
				}
				return nil
			}); err != nil {
				return nil, err
			}
			if str(key) == "span" {
				span = str(val)
			}
		}
		if !keep(span) || cpu >= len(s.values) {
			continue
		}
		out[layerOfFunc(str(funcName[locFunc[s.leafLoc]]))] += s.values[cpu]
	}
	return out, nil
}

// pbFields walks the fields of one protobuf message, calling fn with the
// field number and either the varint value or the length-delimited bytes.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(field, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return errors.New("profile: unknown wire type")
		}
	}
	return nil
}

// pbInts delivers a repeated integer field in either encoding: one varint
// (b == nil) or a packed run of varints.
func pbInts(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator's layers as the benchmark reports them, plus
// runtime (samples with no repository frame: GC, scheduler) and bench (the
// benchmark's own driver and HTTP clients).
var layers = []string{"sim", "core", "netsim", "pfs", "storage", "qos", "obs", "trace",
	"scenario", "whatif", "runtime", "bench"}

// layerOf maps repository packages to layers. cluster, workload, mpisim
// and paper fold into core; population into scenario; the table renderers
// into whatif, whose responses they render; fault into pfs, whose client
// retry path it drives (every workload is fault-free).
var layerOf = map[string]string{
	"sim":        "sim",
	"core":       "core",
	"cluster":    "core",
	"workload":   "core",
	"mpisim":     "core",
	"paper":      "core",
	"netsim":     "netsim",
	"pfs":        "pfs",
	"fault":      "pfs",
	"storage":    "storage",
	"qos":        "qos",
	"qos/report": "whatif",
	"report":     "whatif",
	"obs":        "obs",
	"trace":      "trace",
	"scenario":   "scenario",
	"population": "scenario",
	"whatif":     "whatif",
}

const repoPrefix = "repro/internal/"

// frameLayer returns the layer of a repository function, "" for any other.
// A package the map does not name takes the layer of its nearest named
// parent, and core when it has none.
func frameLayer(fn string) string {
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	pkg := funcPackage(fn)[len(repoPrefix):]
	for {
		if l, ok := layerOf[pkg]; ok {
			return l
		}
		i := strings.LastIndexByte(pkg, '/')
		if i < 0 {
			return "core"
		}
		pkg = pkg[:i]
	}
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/sim.(*Engine).Run" or "net/http.(*conn).serve".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

// sampleLayer attributes one profile sample, given its stack from the leaf
// outwards, to the innermost repository frame's layer. A stack without one
// goes to whatif when it runs in an HTTP server connection (the service's
// own serving), to bench when it runs in the benchmark's main package, and
// to runtime otherwise.
func sampleLayer(stack []string) string {
	httpServe, bench := false, false
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
		switch {
		case fn == "net/http.(*conn).serve":
			httpServe = true
		case strings.HasPrefix(fn, "main."):
			bench = true
		}
	}
	switch {
	case httpServe:
		return "whatif"
	case bench:
		return "bench"
	}
	return "runtime"
}

// selfShares attributes every sample of a gzipped CPU profile to a layer
// and returns each layer's share of the sampled CPU time, with the number
// of samples.
func selfShares(gz []byte) (map[string]float64, int, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, fmt.Errorf("parsing the CPU profile: %w", err)
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, f := range p.locFuncs[loc] {
				stack = append(stack, p.funcName[f])
			}
		}
		byLayer[sampleLayer(stack)] += s.weight
		total += s.weight
	}
	shares := map[string]float64{}
	if total > 0 {
		for l, w := range byLayer {
			shares[l] = w / total
		}
	}
	return shares, len(p.samples), nil
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]string
}

type profSample struct {
	locs   []uint64 // leaf first
	weight float64  // the last sample value: CPU nanoseconds
}

// parseProfile decodes a gzipped profile.proto (the format runtime/pprof
// writes) far enough to walk sample stacks by function name.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcStr := map[uint64]uint64{}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			var vals []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					vals = appendPacked(vals, wire, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.weight = float64(int64(vals[len(vals)-1]))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcStr {
		if si < uint64(len(strs)) {
			p.funcName[id] = strs[si]
		}
	}
	return p, nil
}

// appendPacked appends a repeated integer field, packed or not.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks the fields of one protobuf message: varints arrive in v,
// length-delimited fields in b; fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

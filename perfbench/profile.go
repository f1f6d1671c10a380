package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// layerSamples counts CPU-profile samples per layer: the package of the
// innermost repro/internal/<pkg> frame of each sample, or "runtime" for
// stacks with no such frame (scheduler, GC workers, idle handoffs).
type layerSamples map[string]int64

func (l layerSamples) add(o layerSamples) {
	for k, v := range o {
		l[k] += v
	}
}

func (l layerSamples) total() int64 {
	var n int64
	for _, v := range l {
		n += v
	}
	return n
}

// share is layer's fraction of all samples (0 with no samples).
func (l layerSamples) share(layer string) float64 {
	n := l.total()
	if n == 0 {
		return 0
	}
	return float64(l[layer]) / float64(n)
}

// profiler wraps runtime/pprof's process-wide CPU profile so a failed
// run can always stop it.
type profiler struct {
	buf     bytes.Buffer
	running bool
}

func (p *profiler) start() error {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	p.running = true
	return nil
}

// stop ends the profile, if one is running, and rolls it up by layer.
func (p *profiler) stop() (layerSamples, error) {
	if !p.running {
		return layerSamples{}, nil
	}
	pprof.StopCPUProfile()
	p.running = false
	return rollUp(p.buf.Bytes())
}

const internalPrefix = "repro/internal/"

// layerOf maps a function name such as "repro/internal/sim.(*Proc).yield"
// to its layer ("sim"), or "" outside repro/internal.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

var errBadProfile = errors.New("malformed cpu profile")

// rollUp decodes a gzip-compressed profile.proto CPU profile, as
// runtime/pprof writes it, and attributes each sample to a layer. It
// reads only the fields it needs: Profile.sample (2), .location (4),
// .function (5) and .string_table (6); Sample.location_id (1) and
// .value (2, whose first entry is the sample count); Location.id (1)
// and .line (4); Line.function_id (1); Function.id (1) and .name (2).
func rollUp(data []byte) (layerSamples, error) {
	out := layerSamples{}
	if len(data) == 0 {
		return out, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, wire uint64, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(b, func(num int, wire uint64, v uint64, b []byte) error {
				switch num {
				case 1:
					var err error
					s.locs, err = appendUints(s.locs, wire, v, b)
					return err
				case 2:
					vals, err := appendUints(nil, wire, v, b)
					if err == nil && s.count == 0 && len(vals) > 0 {
						s.count = int64(vals[0])
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, wire uint64, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, wire uint64, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(num int, wire uint64, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				if idx := funcs[fn]; idx < uint64(len(strs)) {
					if l := layerOf(strs[idx]); l != "" {
						layer = l
						break stack
					}
				}
			}
		}
		out[layer] += s.count
	}
	return out, nil
}

// fields calls fn for each field of the protobuf message buf: v holds a
// varint field's value, b a length-delimited field's bytes.
func fields(buf []byte, fn func(num int, wire uint64, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errBadProfile
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errBadProfile
			}
			buf = buf[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(buf) < size {
				return errBadProfile
			}
			buf = buf[size:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errBadProfile
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		default:
			return errBadProfile
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field given either unpacked
// (one varint) or packed (length-delimited run of varints).
func appendUints(dst []uint64, wire, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errBadProfile
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

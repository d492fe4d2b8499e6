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

// modulePrefix is how the repository's layer packages appear in
// function names.
const modulePrefix = "github.com/cycleharvest/ckptsched/internal/"

// gcWorkers are the runtime's background collector goroutines; a sample
// whose stack passes through one of them is charged to "gc".
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// attribute picks the bucket one CPU sample is charged to. stack lists
// function names leaf first, inlined callees before their callers. The
// sample goes to the innermost internal/<pkg> frame — math.Exp called
// from dist.(*Hyperexponential).Survival counts as dist — else to gc
// when a background collector is on the stack, else to other. Packages
// missing from cpuBuckets also count as other, so every bucket keeps
// one meaning as packages come and go.
func attribute(stack []string) string {
	for _, fn := range stack {
		if pkg, ok := internalPkg(fn); ok {
			for _, b := range cpuBuckets {
				if b == pkg {
					return pkg
				}
			}
			return "other"
		}
	}
	for _, fn := range stack {
		for _, w := range gcWorkers {
			if fn == w || strings.HasPrefix(fn, w+".") {
				return "gc"
			}
		}
	}
	return "other"
}

// internalPkg extracts <pkg> from a function name under modulePrefix,
// e.g. "…/internal/markov.(*gammaEvaluator).ratio" → "markov".
func internalPkg(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", false
	}
	end := strings.IndexAny(rest, "./")
	if end <= 0 {
		return "", false
	}
	return rest[:end], true
}

// profile is a running CPU profile.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns CPU seconds per bucket.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	samples, err := decodeProfile(&p.buf)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		out[attribute(s.stack)] += s.cpuNanos / 1e9
	}
	return out, nil
}

// sample is one decoded profile sample.
type sample struct {
	stack    []string // function names, leaf first
	cpuNanos float64
}

// decodeProfile reads a gzipped pprof protobuf CPU profile (the subset
// of profile.proto that attribution needs: sample types, samples,
// locations with their inline lines, functions and the string table).
func decodeProfile(r io.Reader) ([]sample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeNames []int64
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName  = map[uint64]int64{}    // function id → string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, p)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, p); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(p, func(n int, v uint64, _ []byte) error {
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
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
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
	// The CPU value is the sample type whose name is "cpu"; fall back
	// to the last value (runtime/pprof writes [samples, cpu]).
	cpuIdx := -1
	for i, t := range typeNames {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpuIdx = i
		}
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		idx := cpuIdx
		if idx < 0 || idx >= len(s.values) {
			idx = len(s.values) - 1
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locLines[l] {
				stack = append(stack, str(funcName[f]))
			}
		}
		out = append(out, sample{stack: stack, cpuNanos: float64(s.values[idx])})
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint
// fields fn receives the value in v; for length-delimited fields, the
// bytes in b. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("malformed protobuf key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("malformed protobuf varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated protobuf fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated protobuf field")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated protobuf fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (p set) or not.
func appendVarints(dst *[]uint64, v uint64, p []byte) error {
	if p == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(p) > 0 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			return errors.New("malformed packed varint")
		}
		*dst = append(*dst, x)
		p = p[n:]
	}
	return nil
}

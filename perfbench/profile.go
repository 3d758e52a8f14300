package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"path"
	"slices"
	"strings"
)

// CPU-profile buckets: the layer each sampled leaf function belongs to.
const (
	bucketExec   = "exec"   // PTX interpreter and functional device memory
	bucketTiming = "timing" // SM pipeline, scheduler, scoreboard, dispatcher, drain
	bucketMem    = "mem"    // memstage, partitions, caches, DRAM
	bucketReplay = "replay" // replay cache and write-set memos
	bucketLaunch = "launch" // torch → cudnn → cudart launch path, kernel builders, PTX
	bucketServe  = "serve"
	bucketGo     = "go" // Go runtime: allocation, GC assists, scheduling
	bucketOther  = "other"
)

// bucketOf assigns a function to a layer by its package and file.
func bucketOf(fn, file string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	base := path.Base(file)
	switch pkg {
	case "repro/internal/exec":
		if base == "memo.go" {
			return bucketReplay
		}
		return bucketExec
	case "repro/internal/device":
		return bucketExec
	case "repro/internal/timing":
		switch base {
		case "replay.go":
			return bucketReplay
		case "memstage.go", "partition.go":
			return bucketMem
		}
		return bucketTiming
	case "repro/internal/cache", "repro/internal/dram":
		return bucketMem
	case "repro/internal/torch", "repro/internal/cudnn", "repro/internal/cudart",
		"repro/internal/kernels", "repro/internal/ptx":
		return bucketLaunch
	case "repro/internal/serve":
		return bucketServe
	case "runtime":
		return bucketGo
	}
	if strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return bucketGo
	}
	return bucketOther
}

// cpuProfile is a CPU profile reduced to CPU nanoseconds per bucket,
// counting only samples labelled as taken inside a measured region.
type cpuProfile struct {
	buckets map[string]float64
	total   float64
	engine  float64 // samples with a timing.Runner method on the stack
}

// isEngineCall reports whether fn is a method of timing.Runner, the
// runner every context drives the engine through.
func isEngineCall(fn string) bool { return strings.HasPrefix(fn, "repro/internal/timing.Runner.") }

// parseProfile decodes the gzipped profile.proto runtime/pprof writes
// (only the fields needed here) and buckets each measured sample by its
// leaf function.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64 // leaf first
		value int64
	}
	type label struct{ key, str int64 }
	var (
		strs    []string
		samples []sample
		labels  [][]label
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64][2]int64{}
	)
	err = walk(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // sample
			var s sample
			var ls []label
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id, leaf first
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2: // value; the last is CPU nanoseconds
					return eachVarint(v, b, func(x uint64) { s.value = int64(x) })
				case 3: // label
					var l label
					err := walk(b, func(f int, v uint64, _ []byte) error {
						switch f {
						case 1:
							l.key = int64(v)
						case 2:
							l.str = int64(v)
						}
						return nil
					})
					ls = append(ls, l)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			labels = append(labels, ls)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; inlined functions first, their caller last
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name, file int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			fnName[id] = [2]int64{name, file}
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &cpuProfile{buckets: map[string]float64{}}
	for i, s := range samples {
		measured := slices.ContainsFunc(labels[i], func(l label) bool {
			return str(l.key) == "region" && str(l.str) == "measured"
		})
		if !measured {
			continue
		}
		if len(s.locs) == 0 || len(locFns[s.locs[0]]) == 0 {
			continue
		}
		leaf := fnName[locFns[s.locs[0]][0]]
		p.buckets[bucketOf(str(leaf[0]), str(leaf[1]))] += float64(s.value)
		p.total += float64(s.value)
		if slices.ContainsFunc(s.locs, func(l uint64) bool {
			return slices.ContainsFunc(locFns[l], func(f uint64) bool { return isEngineCall(str(fnName[f][0])) })
		}) {
			p.engine += float64(s.value)
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// walk calls f for each field of a protobuf message: f gets the field
// number and either the varint value (wire type 0) or the payload of a
// length-delimited field (wire type 2, v = math.MaxUint64). Fixed-width
// fields are skipped.
func walk(b []byte, f func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
			if err := f(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := f(field, math.MaxUint64, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachVarint handles a repeated integer field in either encoding: one
// varint (payload nil) or a packed run of them.
func eachVarint(v uint64, payload []byte, f func(uint64)) error {
	if payload == nil {
		f(v)
		return nil
	}
	for len(payload) > 0 {
		x, n := varint(payload)
		if n == 0 {
			return errTruncated
		}
		f(x)
		payload = payload[n:]
	}
	return nil
}

// varint decodes one base-128 varint, returning its length (0 when
// malformed).
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

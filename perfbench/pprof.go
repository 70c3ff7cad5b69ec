package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// The traced run attributes CPU-profile samples to layers itself, so the
// benchmark needs no profile library: this file decodes the few fields
// of the profile.proto format (github.com/google/pprof/proto) that
// runtime/pprof writes and the attribution reads.

// profLayers are the prof.*_pct layers, in report order. Every sample
// lands in exactly one of them, so their shares sum to 100.
var profLayers = []string{"sim", "cpu", "tsocc", "mesi", "coherence", "memsys",
	"mesh", "trace", "system", "runtime", "other"}

// repoPackagePrefix is the import-path prefix of the simulator's
// packages (module "repro").
const repoPackagePrefix = "repro/internal/"

// funcPackage returns the import path of the package that defines the
// function with the given symbol name, e.g.
// "repro/internal/sim.(*Engine).dispatch" -> "repro/internal/sim".
func funcPackage(name string) string {
	// Type arguments of generic instantiations may hold dots and
	// slashes of their own; the package path ends before them.
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf maps a package import path to its prof.* layer: the
// simulator's packages by their directory under internal/, the Go
// runtime (scheduler, allocator, GC, profiler) to "runtime", and
// everything else (the standard library, workloads, obs, the benchmark
// itself) to "other".
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, repoPackagePrefix); ok {
		dir, _, _ := strings.Cut(rest, "/")
		for _, l := range profLayers {
			if l == dir {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// profSample is one decoded profile sample: its stack (leaf first) as
// function names, its sample count, and its string labels.
type profSample struct {
	Stack  []string
	Count  int64
	Labels map[string]string
}

// decodeProfile parses a gzip-compressed profile.proto as written by
// runtime/pprof.StartCPUProfile.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		samples []rawSample
		locFunc = map[uint64]uint64{} // location id -> leaf function id
		funcStr = map[uint64]int64{}  // function id -> name string index
		strtab  []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendUint64s(&s.locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendUint64s(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var key, str int64
					err := walkFields(b, func(f int, _ int, v uint64, _ []byte) error {
						switch f {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					if err != nil {
						return err
					}
					s.labels = append(s.labels, [2]int64{key, str})
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id, leaf uint64
			seenLine := false
			err := walkFields(b, func(f int, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					// A location lists its inlined frames innermost
					// first; the first one is the leaf.
					if seenLine {
						return nil
					}
					seenLine = true
					return walkFields(b, func(f int, _ int, v uint64, _ []byte) error {
						if f == 1 {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = leaf
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, _ int, v uint64, _ []byte) error {
				switch f {
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
			funcStr[id] = name
		case 6: // string table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strtab)) {
			return ""
		}
		return strtab[i]
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{Labels: map[string]string{}}
		if len(s.values) > 0 {
			ps.Count = s.values[0]
		}
		for _, l := range s.locs {
			ps.Stack = append(ps.Stack, str(funcStr[locFunc[l]]))
		}
		for _, kv := range s.labels {
			ps.Labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, ps)
	}
	return out, nil
}

// walkFields calls fn for every top-level field of one protobuf message:
// v carries varint and fixed-width values, b the bytes of
// length-delimited ones.
func walkFields(msg []byte, fn func(field int, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return fmt.Errorf("bad length in field %d", field)
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUint64s appends a repeated integer field, which the encoder
// writes either packed (one length-delimited run of varints) or as one
// varint per element.
func appendUint64s(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// layerShares attributes each sample carrying label key=value to the
// layer of its leaf frame and returns every layer's share of those
// samples in percent (all of profLayers present, summing to 100), with
// the number of samples attributed.
func layerShares(samples []profSample, key, value string) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		if s.Labels[key] != value || len(s.Stack) == 0 {
			continue
		}
		counts[layerOf(funcPackage(s.Stack[0]))] += s.Count
		total += s.Count
	}
	shares := make(map[string]float64, len(profLayers))
	for _, l := range profLayers {
		if total > 0 {
			shares[l] = 100 * float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, total
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"

	"cobra/internal/obs"
)

// startProfile begins the traced run's CPU profile.
func (b *bench) startProfile() {
	if b.profile != nil {
		return
	}
	b.profile = &bytes.Buffer{}
	if err := pprof.StartCPUProfile(b.profile); err != nil {
		b.fail("trace: starting the CPU profile: %v", err)
		b.profile = nil
	}
}

// finishTrace stops the profile, writes the spans and profile next to the
// build, and reports the CPU attribution and self times.
func (b *bench) finishTrace(outDir string) error {
	if b.profile == nil {
		return errors.New("trace: the CPU profile never started")
	}
	pprof.StopCPUProfile()
	base := fmt.Sprintf("%s/%s-seed%d", outDir, b.workload, b.seed)
	if err := os.WriteFile(base+".cpu.pprof", b.profile.Bytes(), 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".spans.json")
	if err != nil {
		return err
	}
	spans := b.rec.Spans()
	if err := obs.WriteChromeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if n := b.rec.Dropped(); n > 0 {
		return fmt.Errorf("trace: %d spans dropped; raise the recorder capacity", n)
	}

	fracs, samples, err := cpuFractions(b.profile.Bytes())
	if err != nil {
		return err
	}
	for _, c := range cpuClasses {
		b.metrics.set("cpu."+c+"_frac", "fraction", fracs[c], samples)
	}
	self := selfTimes(spans)
	for _, t := range selfTracks {
		b.metrics.set("self_ms."+t, "ms", self[t], len(spans))
	}
	return nil
}

// selfTimes sums, per track, each span's duration less the part of it its
// child spans cover, in milliseconds.
func selfTimes(spans []obs.Span) map[string]float64 {
	children := map[string][]obs.Span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]float64{}
	for _, s := range spans {
		lo, hi := s.StartUS, s.StartUS+s.DurUS
		var iv [][2]int64
		for _, c := range children[s.SpanID] {
			a, z := max(c.StartUS, lo), min(c.StartUS+c.DurUS, hi)
			if a < z {
				iv = append(iv, [2]int64{a, z})
			}
		}
		out[s.Track] += float64(s.DurUS-covered(iv)) / 1e3
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// classOf maps a profiled function to its cpu.*_frac bucket by package.
func classOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if p, ok := strings.CutPrefix(pkg, "cobra/internal/"); ok {
		for _, c := range cpuClasses {
			if p == c {
				return c
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// cpuFractions attributes the samples of a gzipped pprof CPU profile to the
// package of each sample's leaf function.  The fractions sum to 1.
func cpuFractions(profile []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		fn := ""
		if lines := p.locLines[s.locs[0]]; len(lines) > 0 {
			if i := p.funcName[lines[0]]; i >= 0 && int(i) < len(p.strings) {
				fn = p.strings[i]
			}
		}
		counts[classOf(fn)] += s.values[0]
		total += s.values[0]
	}
	if total == 0 {
		return nil, 0, errors.New("cpu profile holds no samples")
	}
	out := map[string]float64{}
	for _, c := range cpuClasses {
		out[c] = float64(counts[c]) / float64(total)
	}
	return out, int(total), nil
}

// profile is the part of a pprof profile the attribution reads.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id → function ids, leaf first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile reads the pprof protobuf fields the attribution needs:
// Profile.sample (2), .location (4), .function (5), .string_table (6).
func decodeProfile(data []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

// fields walks one protobuf message, handing each field's number, wire
// type, and varint value or length-delimited bytes to f.
func fields(data []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

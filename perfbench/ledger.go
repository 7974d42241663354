package main

// The per-module CPU ledger: a CPU profile of the traced window, decoded
// here (the profile is gzipped protobuf; the standard library writes it but
// ships no reader) and bucketed by module, so the buckets sum to 100%.
// A sample belongs to the module of its innermost frame outside the Go
// runtime: allocation, map hashing and syscall entry are charged to the
// code that asked for them, and "runtime" keeps what no program code asked
// for directly (garbage collection, scheduling, the profiler itself).

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
)

// ledgerModules are the ledger's buckets. hybridqos packages are named by
// their directory under internal/; "nethttp" is the standard network stack
// (net, net/http, syscall, internal/poll, bufio), "encoding" the
// serialisation and formatting libraries, "bench" this benchmark's own
// code, and "other" the named remainder of everything else.
var ledgerModules = []string{
	"rng", "math", "core", "sched", "policy", "pullqueue", "event", "stats",
	"workload", "catalog", "clients", "zipf", "cluster", "workpool",
	"telemetry", "admission", "faults", "uplink", "clock", "qosd",
	"httpserve", "nethttp", "encoding", "sync", "time", "runtime", "bench",
	"other",
}

// moduleOf maps a fully qualified function name onto a ledger bucket.
func moduleOf(fn string) string {
	// Generated hash and equality functions belong to their type's package.
	s := strings.TrimPrefix(strings.TrimPrefix(fn, "type:.eq."), "type:.hash.")
	if i := strings.IndexByte(s, '['); i >= 0 {
		s = s[:i] // generic instantiations may contain slashes
	}
	slash := strings.LastIndexByte(s, '/')
	dot := strings.IndexByte(s[slash+1:], '.')
	if dot < 0 {
		return "runtime" // assembly helpers: aeshashbody, memeqbody, …
	}
	pkg := s[:slash+1+dot]
	if m, ok := strings.CutPrefix(pkg, "hybridqos/internal/"); ok {
		for _, known := range ledgerModules {
			if m == known {
				return m
			}
		}
		return "other"
	}
	switch {
	case pkg == "main":
		return "bench"
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return "math"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/bytealg" || pkg == "internal/abi":
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "syscall" ||
		pkg == "internal/poll" || pkg == "bufio" || strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "nethttp"
	case strings.HasPrefix(pkg, "encoding/") || pkg == "strconv" || pkg == "reflect" ||
		strings.HasPrefix(pkg, "unicode") || pkg == "bytes" || pkg == "strings" || pkg == "fmt":
		return "encoding"
	case pkg == "sync" || strings.HasPrefix(pkg, "sync/") || pkg == "internal/sync":
		return "sync"
	case pkg == "time":
		return "time"
	}
	return "other"
}

// ledger is a decoded CPU profile reduced to shares of total CPU time.
type ledger struct {
	total   int64            // CPU nanoseconds sampled
	modules map[string]int64 // self time by ledger module
	roles   map[string]int64 // time by the goroutine's "role" pprof label
	roleMod map[string]int64 // time by role + "/" + module
}

// share returns part as a percentage of the profile's total.
func (l *ledger) share(part int64) float64 {
	if l.total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(l.total)
}

// profiled runs f under the CPU profiler and returns its ledger.
func profiled(f func() error) (*ledger, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	ferr := f()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, ferr
	}
	return decodeLedger(buf.Bytes())
}

// withRole runs f with the pprof label role=<role>; goroutines f starts
// inherit the label, which is how client and server CPU are told apart.
func withRole(role string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("role", role), func(context.Context) { f() })
}

// addTo writes the ledger's shares into a per-layer result.
func (l *ledger) addTo(out layers) {
	for _, m := range ledgerModules {
		out[m+".cpu_share"] = l.share(l.modules[m])
	}
	out["client.cpu_share"] = l.share(l.roles["client"])
	out["net.cpu_share"] = l.share(l.roleMod["server/nethttp"])
}

// print writes the ledger as a table: every module with a non-zero share,
// largest first, then the label split. The module shares sum to 100%.
func (l *ledger) print() {
	type row struct {
		name string
		ns   int64
	}
	var rows []row
	for m, ns := range l.modules {
		rows = append(rows, row{m, ns})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ns != rows[j].ns {
			return rows[i].ns > rows[j].ns
		}
		return rows[i].name < rows[j].name
	})
	fmt.Printf("ledger (%.3f CPU-s sampled; module self time, %% of total)\n", float64(l.total)/1e9)
	sum := 0.0
	for _, r := range rows {
		s := l.share(r.ns)
		sum += s
		fmt.Printf("  %-12s %7.2f%%\n", r.name, s)
	}
	fmt.Printf("  %-12s %7.2f%%\n", "sum", sum)
	var roles []string
	for r := range l.roles {
		roles = append(roles, r)
	}
	sort.Strings(roles)
	for _, r := range roles {
		fmt.Printf("  role=%-7s %7.2f%%\n", r, l.share(l.roles[r]))
	}
}

// decodeLedger reads a gzipped pprof CPU profile and buckets its samples.
func decodeLedger(gz []byte) (*ledger, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // (key, str) string-table indices
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]int64{}    // function id → name string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = walkFields(raw, func(field int, v uint64, body []byte) error {
		switch field {
		case 2:
			var s sample
			err := walkFields(body, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, u := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				case 3:
					var kv [2]int64
					if err := walkFields(b, func(lf int, lv uint64, _ []byte) error {
						switch lf {
						case 1:
							kv[0] = int64(lv)
						case 2:
							kv[1] = int64(lv)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location: id, then lines, innermost (inlined) frame first
			var id uint64
			var fns []uint64
			err := walkFields(body, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(b, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := walkFields(body, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// The CPU profile's sample types are (samples/count, cpu/nanoseconds).
	cpuIdx := 1
	l := &ledger{modules: map[string]int64{}, roles: map[string]int64{}, roleMod: map[string]int64{}}
	for _, s := range samples {
		if len(s.values) <= cpuIdx || len(s.locs) == 0 {
			continue
		}
		role := "unlabelled"
		for _, kv := range s.labels {
			if str(kv[0]) == "role" {
				role = str(kv[1])
			}
		}
		if role == "harness" {
			continue // generating inputs and calibrating are not the program's work
		}
		// Charge runtime helpers (allocation, map hashing, write barriers,
		// syscall entry) to the nearest caller outside the runtime; a stack
		// that is runtime all the way down (GC workers, the scheduler)
		// stays in "runtime".
		mod := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if m := moduleOf(str(funcName[fn])); m != "runtime" {
					mod = m
					break frames
				}
			}
		}
		ns := s.values[cpuIdx]
		l.total += ns
		l.modules[mod] += ns
		l.roles[role] += ns
		l.roleMod[role+"/"+mod] += ns
	}
	return l, nil
}

// walkFields calls f for each field of a protobuf message: v carries
// varint values, body the bytes of length-delimited ones.
func walkFields(b []byte, f func(field int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := f(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(field, 0, body); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v) or
// packed (body) encoding.
func appendPacked(dst []uint64, v uint64, body []byte) []uint64 {
	if body == nil {
		return append(dst, v)
	}
	for len(body) > 0 {
		u, n := uvarint(body)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		body = body[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// rtStats is a reading of the runtime's allocation and CPU-class counters.
type rtStats struct {
	allocs, gcCPU, busyCPU, harnessS float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readRT() rtStats {
	metrics.Read(rtSamples)
	val := func(i int) float64 {
		switch rtSamples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(rtSamples[i].Value.Uint64())
		case metrics.KindFloat64:
			return rtSamples[i].Value.Float64()
		}
		return 0
	}
	return rtStats{allocs: val(0), gcCPU: val(1), busyCPU: val(2) - val(3), harnessS: harnessS}
}

// addRuntime writes the GC share of busy CPU and the allocations per
// request between two readings. The time the benchmark spent on its
// references in between is left out of busy CPU.
func addRuntime(out layers, before, after rtStats, requests float64) {
	if busy := after.busyCPU - before.busyCPU - (after.harnessS - before.harnessS); busy > 0 {
		out["runtime.gc_cpu_share"] = 100 * (after.gcCPU - before.gcCPU) / busy
	}
	if requests > 0 {
		out["runtime.allocs_per_req"] = (after.allocs - before.allocs) / requests
	}
}

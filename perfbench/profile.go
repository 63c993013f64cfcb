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

// cpuLayers are the packages under internal/ whose CPU share the traced
// pass reports. Samples whose innermost internal frame is in another
// package, or that have none (garbage collector workers, the idle
// scheduler, this benchmark's own frames), count under "other".
var cpuLayers = []string{
	"sim", "session", "pdu", "nvme", "tcp", "core", "rdma", "ring", "netsim",
	"ssd", "bdev", "target", "cache", "shm", "mempool", "transport",
	"cluster", "qos", "perf", "telemetry", "stats", "exp",
}

// Runtime buckets, matched against the innermost runtime frames of a
// sample. Stack growth and allocation/GC names are matched first, so a
// scheduler frame above them does not claim their samples.
var (
	stackGrowthFuncs = []string{"copystack", "newstack", "morestack", "morestack_noctxt",
		"stackalloc", "stackfree", "stackcacherefill", "stackcacherelease", "adjustframe",
		"adjustpointers", "adjustsudogs", "fillstack", "shrinkstack", "stackpoolalloc"}
	allocGCMarks = []string{"malloc", "gc", "GC", "sweep", "scav", "mspan", "mheap", "mcentral",
		"mcache", "heapBits", "heapSetType", "wbBuf", "WriteBarrier", "scanobject", "scanblock",
		"scanstack", "scanframe", "greyobject", "findObject", "markroot", "markBits", "newobject",
		"newarray", "makeslice", "growslice", "makemap", "memclrNoHeapPointers", "typePointers",
		"spanOf", "bulkBarrier", "nextFree"}
	schedFuncs = []string{"schedule", "findRunnable", "park_m", "gopark", "goparkunlock", "goready",
		"ready", "runqget", "runqput", "runqgrab", "runqsteal", "globrunqget", "stealWork",
		"execute", "gogo", "mcall", "systemstack", "chansend", "chansend1", "chanrecv", "chanrecv1",
		"chanrecv2", "selectgo", "send", "recv", "lock2", "unlock2", "lockWithRank", "unlockWithRank",
		"futex", "futexsleep", "futexwakeup", "notesleep", "notewakeup", "notetsleepg", "stopm",
		"startm", "wakep", "handoffp", "mPark", "checkTimers", "usleep", "osyield", "procyield",
		"casgstatus", "goexit0", "gdestroy", "newproc", "newproc1", "acquireSudog", "releaseSudog",
		"gfget", "gfput", "resetspinning", "netpoll", "gosched_m", "goschedImpl", "runqempty",
		"pidleget", "pidleput", "nanotime", "nanotime1", "gopreempt_m", "goyield", "semrelease1",
		"semacquire1", "readyWithTime", "entersyscall", "exitsyscall", "reentersyscall", "selparkcommit"}
)

// cpuShares attributes a CPU profile's samples: "<layer>.cpu_share" by
// the innermost nvmeoaf/internal/<layer> frame, and the runtime
// buckets "runtime.sched_share", "runtime.alloc_gc_share" and
// "runtime.stack_growth_share" by the innermost runtime frames.
func cpuShares(gz []byte) (map[string]float64, error) {
	stacks, err := parseProfile(gz)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	counts := map[string]int64{}
	var total int64
	for _, st := range stacks {
		total += st.count
		layer := "other"
		for _, fn := range st.funcs {
			if rest, ok := strings.CutPrefix(fn, "nvmeoaf/internal/"); ok {
				if l := rest[:strings.IndexAny(rest+".", "./")]; known[l] {
					layer = l
				}
				break
			}
		}
		counts[layer+".cpu_share"] += st.count
		if b := runtimeBucket(st.funcs); b != "" {
			counts["runtime."+b+"_share"] += st.count
		}
	}
	out := map[string]float64{"trace.cpu_samples": float64(total)}
	for _, l := range append(cpuLayers, "other") {
		out[l+".cpu_share"] = 0
	}
	for _, b := range []string{"sched", "alloc_gc", "stack_growth"} {
		out["runtime."+b+"_share"] = 0
	}
	if total == 0 {
		return nil, errors.New("cpu profile has no samples")
	}
	for k, v := range counts {
		out[k] = float64(v) / float64(total)
	}
	return out, nil
}

// runtimeBucket names the bucket of a stack (innermost frame first) by
// its innermost runtime frames, or "" when none names a bucket.
func runtimeBucket(funcs []string) string {
	var rt []string
	for _, fn := range funcs {
		name, ok := strings.CutPrefix(fn, "runtime.")
		if !ok {
			if strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "runtime/internal/") {
				continue
			}
			break
		}
		rt = append(rt, strings.TrimPrefix(strings.TrimPrefix(name, "(*"), "("))
	}
	for _, b := range []struct {
		name  string
		match func(string) bool
	}{
		{"stack_growth", func(n string) bool { return hasName(stackGrowthFuncs, n) }},
		{"alloc_gc", func(n string) bool { return containsAny(n, allocGCMarks) }},
		{"sched", func(n string) bool { return hasName(schedFuncs, n) }},
	} {
		for _, n := range rt {
			if b.match(n) {
				return b.name
			}
		}
	}
	return ""
}

func hasName(names []string, n string) bool {
	for _, x := range names {
		if n == x {
			return true
		}
	}
	return false
}

func containsAny(n string, marks []string) bool {
	for _, m := range marks {
		if strings.Contains(n, m) {
			return true
		}
	}
	return false
}

// stack is one profile sample: function names innermost first, with
// inlined calls expanded, and its sample count.
type stack struct {
	funcs []string
	count int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: each sample's location
// ids and count, each location's (inlined) function ids, and function
// names.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{}
		funcName = map[uint64]int64{}
		strs     []string
	)
	err = fields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, v, data)
				case 2:
					vals = appendUints(vals, v, data)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
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
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if i := funcName[fid]; i >= 0 && i < int64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
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
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", key&7)
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed (data set) or
// not (one value).
func appendUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

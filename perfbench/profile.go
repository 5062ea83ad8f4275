package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"strings"
)

// The CPU profile is read back from its pprof encoding (gzipped protobuf,
// profile.proto) with the few fields attribution needs: each sample's
// location ids and values, each location's lines, each function's name.

// pbReader walks protobuf wire format.
type pbReader struct {
	b   []byte
	err error
}

var errPB = errors.New("perfbench: malformed profile")

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = errPB
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errPB
	return 0
}

// field returns the next field number, wire type, and for length-delimited
// fields the payload (for varints, val holds the value).
func (r *pbReader) field() (num int, wire int, val uint64, payload []byte) {
	key := r.varint()
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = errPB
			return
		}
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if n > uint64(len(r.b)) {
			r.err = errPB
			return
		}
		payload, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = errPB
			return
		}
		r.b = r.b[4:]
	default:
		r.err = errPB
	}
	return
}

// uints decodes a repeated integer field that may arrive packed (wire type
// 2) or one value per field (wire type 0).
func uints(dst []uint64, wire int, val uint64, payload []byte) []uint64 {
	if wire == 0 {
		return append(dst, val)
	}
	pr := pbReader{b: payload}
	for len(pr.b) > 0 && pr.err == nil {
		dst = append(dst, pr.varint())
	}
	return dst
}

// cpuProfile is a decoded profile: every sample as a leaf-first stack of
// function names (inlined frames expanded, innermost first) with its value.
type cpuProfile struct {
	stacks [][]string
	values []int64
}

func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	r := pbReader{b: raw}
	for len(r.b) > 0 && r.err == nil {
		num, _, _, payload := r.field()
		switch num {
		case 2: // sample
			var s sample
			sr := pbReader{b: payload}
			for len(sr.b) > 0 && sr.err == nil {
				n, w, v, p := sr.field()
				switch n {
				case 1:
					s.locs = uints(s.locs, w, v, p)
				case 2:
					s.vals = uints(s.vals, w, v, p)
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			lr := pbReader{b: payload}
			for len(lr.b) > 0 && lr.err == nil {
				n, _, v, p := lr.field()
				switch n {
				case 1:
					id = v
				case 4: // line
					li := pbReader{b: p}
					for len(li.b) > 0 && li.err == nil {
						if ln, _, lv, _ := li.field(); ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // function
			var id, name uint64
			fr := pbReader{b: payload}
			for len(fr.b) > 0 && fr.err == nil {
				n, _, v, _ := fr.field()
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcs[id] = name
		case 6: // string table
			strs = append(strs, string(payload))
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				if idx := funcs[fid]; idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		// CPU profiles carry [samples, cpu-nanoseconds]; weigh by time.
		var v int64
		if len(s.vals) > 0 {
			v = int64(s.vals[len(s.vals)-1])
		}
		p.stacks = append(p.stacks, stack)
		p.values = append(p.values, v)
	}
	return p, nil
}

// repoPkg names the repro/internal package a function belongs to, or "".
func repoPkg(fn string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// schedFrames are the runtime's park, wake and futex paths: the cost of
// goroutines handing work to each other (on files_smp, the SMP pass
// barrier between the stepping goroutine and the per-CPU workers).
var schedFrames = map[string]bool{
	"runtime.park_m": true, "runtime.schedule": true, "runtime.findRunnable": true,
	"runtime.futex": true, "runtime.futexsleep": true, "runtime.futexwakeup": true,
	"runtime.notesleep": true, "runtime.notewakeup": true, "runtime.ready": true,
	"runtime.wakep": true, "runtime.startm": true, "runtime.stopm": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.mPark": true,
}

// profileShares attributes CPU time. Each sample counts for the innermost
// repro/internal package on its stack (runtime frames it called, such as
// malloc and memclr, included); "runtime.sched" counts samples in the
// scheduler's park/wake/futex paths and "net.syscall" samples inside a
// system call. Shares are of all sampled CPU time.
func profileShares(p *cpuProfile) map[string]float64 {
	out := map[string]float64{}
	var total int64
	for i, stack := range p.stacks {
		v := p.values[i]
		total += v
		gc, sched, sys := false, false, false
		pkg := ""
		for _, fn := range stack {
			if pkg == "" {
				pkg = repoPkg(fn)
			}
			switch {
			case fn == "runtime.gcBgMarkWorker":
				gc = true
			case schedFrames[fn]:
				sched = true
			case strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.") || fn == "runtime.netpoll":
				sys = true
			}
		}
		if pkg != "" && !gc {
			out[pkg] += float64(v)
		}
		if sched && !gc {
			out["runtime.sched"] += float64(v)
		}
		if sys {
			out["net.syscall"] += float64(v)
		}
	}
	if total > 0 {
		for k := range out {
			out[k] /= float64(total)
		}
	}
	return out
}

// mutexWait sums the runtime's mutex profile: all sampled wait, and the
// wait whose stack runs through repro/internal/kernel. The profile grows
// for the life of the process and cannot be reset, so a phase's figures
// are the difference of two readings.
func mutexWait() (total, kern float64) {
	n, _ := runtime.MutexProfile(nil)
	recs := make([]runtime.BlockProfileRecord, n+16)
	n, ok := runtime.MutexProfile(recs)
	if !ok {
		return 0, 0
	}
	for _, r := range recs[:n] {
		total += float64(r.Cycles)
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if repoPkg(f.Function) == "kernel" {
				kern += float64(r.Cycles)
				break
			}
			if !more {
				break
			}
		}
	}
	return total, kern
}

// cpuClasses reads the runtime's CPU accounting: GC CPU seconds and busy
// (non-idle) CPU seconds so far.
func cpuClasses() (gc, busy float64, err error) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindFloat64 {
			return 0, 0, fmt.Errorf("runtime metric %s is not supported", x.Name)
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64(), nil
}

package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host reference. The benchmark runs on shared virtual machines, where
// other tenants slow this process down by a fifth or more for minutes at a
// time. That shows on the CPU clock too: the process is not preempted, its
// instructions take longer, because the caches, the memory bus and the core
// are shared. The reference is a fixed piece of work of the kind the
// program spends much of its CPU time on: allocating small objects that
// hold pointers from the Go heap (the runtime's malloc, zeroing and heap
// bitmap). It is timed every refEvery through the measured phase. The
// normalised figures scale every CPU time of the run by refNominal / (the
// reference's median time over the run), so they read as CPU time on a
// host where the reference takes refNominal. A change to the program moves
// them as much as the raw CPU times; the neighbours' load moves them much
// less. A change that makes allocation itself cheaper or dearer, such as a
// new Go release or a GOGC setting, moves the reference too, and is not
// measured by the normalised figures.
//
// Other references were timed beside it in the same runs. On sets of six
// runs per workload this one cut the spread of ops per CPU second by 2.3
// to 3.6 times. Random read-modify-writes over a table pushed out of the
// core's cache, streaming stores to cold memory, pointer chasing and
// arithmetic chains followed the host less closely, alone and in
// combination (see README.md).

const (
	// refAllocs objects of 48 bytes each: 96 KiB of garbage a sample, about
	// 5% of jobs_1cpu's own allocation and 1% of the other workloads'.
	refAllocs = 2000
	// refNominal is a round figure within the reference's times on the
	// 2-vCPU Xeon virtual machine where the benchmark was defined (45 to
	// 115 us there). It only sets the scale of the normalised figures.
	refNominal = 75e3 // ns
	// refEvery is how often the measured phase takes a reference sample.
	refEvery = 50 * time.Millisecond
)

type refNode struct {
	next *refNode
	v    [5]uint64
}

// refSink makes the reference's objects escape to the heap.
var refSink *refNode

// offClock is the process CPU time spent in the benchmark's own
// measurements: reference samples and liveHeap's collections. cpuNow leaves
// it out, so they cost the measured ops nothing. The GC cycles that the
// samples' garbage brings forward are not left out.
var offClock atomic.Int64

// refSample runs the reference once and returns its time on the calling
// thread's CPU clock. It must not run beside the workload's own
// goroutines: every workload calls it between ticks, when they are idle.
func refSample() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p0 := processCPU()
	t0 := threadCPU()
	var head *refNode
	for i := 0; i < refAllocs; i++ {
		head = &refNode{next: head}
	}
	refSink = head
	t1 := threadCPU()
	refSink = nil
	offClock.Add(int64(processCPU() - p0))
	return float64(t1 - t0)
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// refScale is the factor that turns CPU time taken next to the reference
// samples refs into normalised CPU time.
func refScale(refs []float64) float64 { return refNominal / medianF(refs) }

package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockfs"
	"repro/internal/rfs"
)

// Span names. Every timed boundary the benchmark crosses has one; the
// per-name duration samples give the per-layer medians.
const (
	spJob = iota // a job's lifetime: spawn to observed exit (op id = job id)
	spSpawn
	spStep
	spRequest // one controller request (op id = request id)
	spRoundTrip
	spDevRead
	spDevWrite
	spDevSync
	spLockWait
	spLockHold
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"job", "spawn", "step", "request", "roundtrip",
	"dev.read", "dev.write", "dev.sync", "lock.wait", "lock.hold",
}

// Job and request kinds, one index space for both so a span carries one
// small kind field.
const (
	kCompute = iota
	kMill
	kFork
	kPipe
	kChurn
	kScan
	kPS
	kAttach
	kStatus
	kAS
	nKinds
	noKind = 255
)

var kindNames = [nKinds]string{"compute", "mill", "fork", "pipe", "churn", "scan", "ps", "attach", "status", "as"}

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; parent is the id of the span that caused this one (0: none).
type span struct {
	id, parent, op int64
	start, end     int64
	name           uint8
	kind           uint8 // job or request kind, or noKind
}

// keepDurs marks the span names whose durations feed a per-layer median;
// device calls are only counted.
var keepDurs = [nSpanNames]bool{spStep: true, spSpawn: true, spRoundTrip: true, spLockWait: true, spLockHold: true}

// maxSpans bounds the spans kept for the trace file. Durations are kept
// apart from it, so the medians never depend on the cap.
const maxSpans = 1 << 18

// tracer records spans in memory while it is on. Off, every wrapper below
// only counts. It is safe for concurrent use: dev calls arrive from SMP
// worker goroutines, lock and round-trip spans from rfs goroutines.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
	durs    [nSpanNames][]int64
	kinds   [nKinds][]int64 // per-kind job and request durations
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer's clock.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// id allocates a span id, so a span can be named as a parent before it ends.
func (t *tracer) id() int64 { return t.nextID.Add(1) }

// record stores one finished span; kind is a job or request kind, or
// noKind.
func (t *tracer) record(name int, id, parent, op, start, end int64, kind uint8) {
	t.mu.Lock()
	if keepDurs[name] {
		t.durs[name] = append(t.durs[name], end-start)
	}
	if kind != noKind {
		t.kinds[kind] = append(t.kinds[kind], end-start)
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{id: id, parent: parent, op: op, start: start, end: end, name: uint8(name), kind: kind})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// reset forgets everything recorded so far; the traced phase starts clean.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.dropped = 0
	t.durs = [nSpanNames][]int64{}
	t.kinds = [nKinds][]int64{}
	t.mu.Unlock()
}

// write dumps the kept spans as gzipped tab-separated lines:
// id, parent, op, name, kind, start_ns, end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := bufio.NewWriter(zw)
	fmt.Fprintf(w, "# id\tparent\top\tname\tkind\tstart_ns\tend_ns\tdropped=%d\n", t.dropped)
	for _, s := range t.spans {
		kind := "-"
		if s.kind != noKind {
			kind = kindNames[s.kind]
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", s.id, s.parent, s.op, spanNames[s.name], kind, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countDev wraps the blockfs.Dev behind /disk: it counts every device call
// and, while tracing, records a span per call parented to the Step that
// caused it.
type countDev struct {
	blockfs.Dev
	tr                   *tracer
	step                 *atomic.Int64 // id of the Step in progress
	reads, writes, syncs atomic.Int64
}

func (d *countDev) timed(name int, f func() error) error {
	if !d.tr.on.Load() {
		return f()
	}
	start := d.tr.now()
	err := f()
	d.tr.record(name, d.tr.id(), d.step.Load(), 0, start, d.tr.now(), noKind)
	return err
}

// ReadBlock implements blockfs.Dev.
func (d *countDev) ReadBlock(no uint32, p []byte) error {
	d.reads.Add(1)
	return d.timed(spDevRead, func() error { return d.Dev.ReadBlock(no, p) })
}

// WriteBlock implements blockfs.Dev.
func (d *countDev) WriteBlock(no uint32, p []byte) error {
	d.writes.Add(1)
	return d.timed(spDevWrite, func() error { return d.Dev.WriteBlock(no, p) })
}

// Sync implements blockfs.Dev.
func (d *countDev) Sync() error {
	d.syncs.Add(1)
	return d.timed(spDevSync, d.Dev.Sync)
}

// timedTransport wraps the rfs transport one controller uses. It forwards
// RoundTripIdem with the caller's idempotency flag, so the inner
// transport's retry policy is unchanged, and records each round trip as a
// child of the controller's request in progress.
type timedTransport struct {
	t   rfs.IdemTransport
	tr  *tracer
	req int64 // span id of the request in progress (owned by the controller goroutine)
	op  int64
	rts atomic.Int64
}

var _ rfs.IdemTransport = (*timedTransport)(nil)

// RoundTrip implements rfs.Transport.
func (w *timedTransport) RoundTrip(req []byte) ([]byte, error) { return w.RoundTripIdem(req, false) }

// RoundTripIdem implements rfs.IdemTransport.
func (w *timedTransport) RoundTripIdem(req []byte, idempotent bool) ([]byte, error) {
	w.rts.Add(1)
	if !w.tr.on.Load() {
		return w.t.RoundTripIdem(req, idempotent)
	}
	start := w.tr.now()
	resp, err := w.t.RoundTripIdem(req, idempotent)
	w.tr.record(spRoundTrip, w.tr.id(), w.req, w.op, start, w.tr.now(), noKind)
	return resp, err
}

// timedLocker is the sync.Locker handed to rfs.NewServer: the wait to
// acquire it is contention, the time it is held is server dispatch (vfs
// lookup plus procfs work).
type timedLocker struct {
	mu  sync.Mutex
	tr  *tracer
	acq int64 // when the current holder acquired the lock (guarded by mu)
}

// Lock implements sync.Locker.
func (l *timedLocker) Lock() {
	if !l.tr.on.Load() {
		l.mu.Lock()
		l.acq = -1
		return
	}
	start := l.tr.now()
	l.mu.Lock()
	l.acq = l.tr.now()
	l.tr.record(spLockWait, l.tr.id(), 0, 0, start, l.acq, noKind)
}

// Unlock implements sync.Locker.
func (l *timedLocker) Unlock() {
	if l.acq >= 0 && l.tr.on.Load() {
		l.tr.record(spLockHold, l.tr.id(), 0, 0, l.acq, l.tr.now(), noKind)
	}
	l.mu.Unlock()
}

// countConn counts the bytes that cross the client's TCP connection.
type countConn struct {
	net.Conn
	bytes atomic.Int64
}

// Read implements net.Conn.
func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

// Write implements net.Conn.
func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

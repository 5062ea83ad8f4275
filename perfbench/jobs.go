package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync/atomic"

	"repro"
	"repro/internal/blockfs"
	"repro/internal/kernel"
	"repro/internal/types"
	"repro/internal/vfs"
)

// The job programs. A job is one simulated process spawned into a free
// slot; it exits 0 when its work succeeded and its own checks passed.

// progCompute fills a 32 KiB bss array with an arithmetic series (one word
// every stride bytes), sums it back, and exits 1 unless the sum matches
// the checksum computed in Go when the program was assembled.
func progCompute(start, step, stride uint32) string {
	const size = 32 << 10
	n := size / stride
	var sum uint32
	for i := uint32(0); i < n; i++ {
		sum += start + i*step
	}
	return fmt.Sprintf(`
	la r1, buf
	movi r2, 0
	li r3, %d
fill:	st r3, [r1]
	addi r3, %d
	addi r1, %d
	addi r2, 1
	cmpi r2, %d
	jne fill
	la r1, buf
	movi r2, 0
	movi r4, 0
sum:	ld r5, [r1]
	add r4, r5
	addi r1, %d
	addi r2, 1
	cmpi r2, %d
	jne sum
	li r5, %d
	cmp r4, r5
	jne bad
	movi r0, SYS_exit
	movi r1, 0
	syscall
bad:	movi r0, SYS_exit
	movi r1, 1
	syscall
.bss
buf:	.space %d
`, start, step, stride, n, stride, n, sum, size)
}

// progMill makes n getpid calls and exits.
func progMill(n int) string {
	return fmt.Sprintf(`
	movi r6, 0
loop:	movi r0, SYS_getpid
	syscall
	addi r6, 1
	cmpi r6, %d
	jne loop
	movi r0, SYS_exit
	movi r1, 0
	syscall
`, n)
}

// progFork forks kids children, each exiting at once, and reaps them all.
func progFork(kids int) string {
	return fmt.Sprintf(`
	movi r6, 0
fork:	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_exit
	movi r1, 0
	syscall
parent:	addi r6, 1
	cmpi r6, %d
	jne fork
	movi r6, 0
reap:	movi r0, SYS_wait
	movi r1, 0
	syscall
	addi r6, 1
	cmpi r6, %d
	jne reap
	movi r0, SYS_exit
	movi r1, 0
	syscall
`, kids, kids)
}

// progPipe forks a child that spins for delay iterations and then writes
// 4 x 8 bytes down a pipe; the parent's blocking reads take them, it
// reaps the child and exits 0 only if every read returned 8 bytes.
func progPipe(delay int) string {
	return fmt.Sprintf(`
	movi r0, SYS_pipe
	syscall
	mov r6, r0
	mov r7, r1
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r5, %d
cspin:	addi r5, -1
	cmpi r5, 0
	jne cspin
	movi r4, 0
wloop:	movi r0, SYS_write
	mov r1, r7
	la r2, msg
	movi r3, 8
	syscall
	addi r4, 1
	cmpi r4, 4
	jne wloop
	movi r0, SYS_exit
	movi r1, 0
	syscall
parent:	movi r4, 0
rloop:	movi r0, SYS_read
	mov r1, r6
	la r2, buf
	movi r3, 8
	syscall
	cmpi r0, 8
	jne bad
	addi r4, 1
	cmpi r4, 4
	jne rloop
	movi r0, SYS_wait
	movi r1, 0
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
bad:	movi r0, SYS_exit
	movi r1, 1
	syscall
.data
msg:	.ascii "pipeline"
buf:	.space 8
`, delay)
}

// progChurn creates path on /disk, writes it in writes 1 KiB chunks,
// fsyncs, closes and unlinks it. Exit 2: a short write; exit 3: the
// unlink failed.
func progChurn(path string, writes int) string {
	return fmt.Sprintf(`
	movi r0, SYS_creat
	la r1, path
	movi r2, 420
	syscall
	mov r7, r0
	movi r4, 0
wr:	movi r0, SYS_write
	mov r1, r7
	la r2, data
	li r3, 1024
	syscall
	li r5, 1024
	cmp r0, r5
	jne short
	addi r4, 1
	cmpi r4, %d
	jne wr
	movi r0, SYS_fsync
	mov r1, r7
	syscall
	movi r0, SYS_close
	mov r1, r7
	syscall
	movi r0, SYS_unlink
	la r1, path
	syscall
	cmpi r0, 0
	jne nounl
	movi r0, SYS_exit
	movi r1, 0
	syscall
short:	movi r0, SYS_exit
	movi r1, 2
	syscall
nounl:	movi r0, SYS_exit
	movi r1, 3
	syscall
.data
path:	.asciz "%s"
data:	.space 1024
`, writes, path)
}

// progScan reads path to its end in 1 KiB reads and exits 0 only if it
// read exactly size bytes (1: wrong size; 2: too many reads).
func progScan(path string, size int) string {
	return fmt.Sprintf(`
	movi r0, SYS_open
	la r1, path
	movi r2, %d
	syscall
	mov r7, r0
	movi r6, 0
	movi r4, 0
rd:	movi r0, SYS_read
	mov r1, r7
	la r2, buf
	li r3, 1024
	syscall
	cmpi r0, 0
	je eof
	add r6, r0
	addi r4, 1
	cmpi r4, 64
	je runaway
	jmp rd
eof:	movi r0, SYS_close
	mov r1, r7
	syscall
	li r5, %d
	cmp r6, r5
	jne bad
	movi r0, SYS_exit
	movi r1, 0
	syscall
bad:	movi r0, SYS_exit
	movi r1, 1
	syscall
runaway: movi r0, SYS_exit
	movi r1, 2
	syscall
.data
path:	.asciz "%s"
buf:	.space 1024
`, vfs.ORead, size, path)
}

// share is one entry of a job mix: a kind and its weight in percent.
type share struct {
	kind   uint8
	weight int
}

// jobSlots is how many jobs run at once: when one exits, the next is
// spawned into its slot.
const jobSlots = 8

// jobsConfig describes a jobs workload.
type jobsConfig struct {
	ncpu int
	mix  []share
	// files is the size of the preloaded /disk set (0: no disk), each
	// fileSize bytes.
	files, fileSize int
	// warmJobs is the warm-up batch: the first warmJobs completions, over
	// which the digest and the exact per-job simulation costs are taken.
	warmJobs int
	// bare mounts /disk on the raw device, without the counting wrapper.
	bare bool
}

const (
	diskBlocks = 2048
	cacheSlots = blockfs.DefaultCacheSlots
)

// slot is one job slot: the process running in it and when it started.
type slot struct {
	p     *kernel.Proc
	kind  uint8
	id    int64 // job number, in spawn order
	span  int64
	start clock // at spawn
	t0    int64 // tracer time at spawn
}

// jobsEnv is a booted jobs workload.
type jobsEnv struct {
	cfg   jobsConfig
	s     *repro.System
	tr    *tracer
	rng   *rand.Rand
	disk  *blockfs.FS
	dev   *countDev
	files map[string][]byte // the preloaded set: name -> contents
	progs [nKinds][]string  // program paths per kind: variants, or per slot (churn) or file (scan)
	slots []slot
	step  atomic.Int64 // id of the Step in progress, for dev spans

	spawning  bool
	nextJob   int64
	passes    int64
	completed int
	statuses  map[int]int // exit status -> count, over every job
	dig       digest
}

// digest accumulates the deterministic outcome of the warm-up batch.
type digest struct {
	h             hash.Hash64 // FNV-1a over every completion, then the totals
	kinds         [nKinds]int
	passes, ticks int64 // Step calls and simulated clock at the batch's end
	done          bool
}

func setupJobs(cfg jobsConfig, seed int64, tr *tracer) (*jobsEnv, error) {
	s := repro.NewSystem(repro.Options{NCPU: cfg.ncpu})
	e := &jobsEnv{cfg: cfg, s: s, tr: tr, rng: rand.New(rand.NewSource(seed)), statuses: map[int]int{}}
	e.dig.h = fnv.New64a()
	fail := func(err error) (*jobsEnv, error) {
		e.close()
		return nil, err
	}
	install := func(kind uint8, path, src string) error {
		if err := s.Install(path, src, 0o755, 0, 0); err != nil {
			return fmt.Errorf("install %s: %w", path, err)
		}
		e.progs[kind] = append(e.progs[kind], path)
		return nil
	}
	for _, m := range cfg.mix {
		var err error
		switch m.kind {
		case kCompute:
			for i, st := range [][2]uint32{{0x1000, 3}, {0x7f00, 11}, {0x12345, 7}} {
				if err = install(m.kind, fmt.Sprintf("/bin/compute%d", i), progCompute(st[0], st[1], 256)); err != nil {
					break
				}
			}
		case kMill:
			for i, n := range []int{200, 300, 400} {
				if err = install(m.kind, fmt.Sprintf("/bin/mill%d", i), progMill(n)); err != nil {
					break
				}
			}
		case kFork:
			err = install(m.kind, "/bin/fork3", progFork(3))
		case kPipe:
			for i, d := range []int{60, 200} {
				if err = install(m.kind, fmt.Sprintf("/bin/pipe%d", i), progPipe(d)); err != nil {
					break
				}
			}
		case kChurn:
			// One program per slot and size: a slot runs one job at a time,
			// so each churner owns its file.
			for sl := 0; sl < jobSlots; sl++ {
				for _, w := range []int{2, 4, 6} {
					path := fmt.Sprintf("/bin/churn%d_%d", sl, w)
					if err = install(m.kind, path, progChurn(fmt.Sprintf("/disk/churn%d", sl), w)); err != nil {
						break
					}
				}
			}
		}
		if err != nil {
			return fail(err)
		}
	}
	if cfg.files > 0 {
		if err := e.mountDisk(seed); err != nil {
			return fail(err)
		}
	}
	e.slots = make([]slot, jobSlots)
	e.spawning = true
	for i := range e.slots {
		if err := e.spawn(i, readClock()); err != nil {
			return fail(err)
		}
	}
	return e, nil
}

// mountDisk formats a device, mounts it at /disk through the counting
// wrapper, preloads the scan set with seeded contents and installs one scan
// program per file.
func (e *jobsEnv) mountDisk(seed int64) error {
	var dev blockfs.Dev = blockfs.NewMemDev(diskBlocks)
	if !e.cfg.bare {
		e.dev = &countDev{Dev: dev, tr: e.tr, step: &e.step}
		dev = e.dev
	}
	if err := blockfs.Mkfs(dev, 0); err != nil {
		return err
	}
	fs, err := blockfs.Mount(dev, blockfs.MountOptions{CacheSlots: cacheSlots, Now: e.s.K.Now})
	if err != nil {
		return err
	}
	if err := e.s.NS.Mount("/disk", fs.Root()); err != nil {
		return err
	}
	e.s.FS.MkdirAll("/disk", 0o755)
	e.disk = fs
	// Jobs run as ordinary users and create their churn files in the
	// root directory, so open it up like /tmp (through the chmod hook).
	root, ok := fs.Root().(interface{ SetMode(uint16) })
	if !ok {
		return fmt.Errorf("blockfs root has no chmod hook")
	}
	root.SetMode(0o777)
	cl := e.s.Client(types.RootCred())
	frng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	e.files = map[string][]byte{}
	for i := 0; i < e.cfg.files; i++ {
		name := fmt.Sprintf("set%02d", i)
		data := make([]byte, e.cfg.fileSize)
		frng.Read(data)
		f, err := cl.Open("/disk/"+name, vfs.OWrite|vfs.OCreat|vfs.OTrunc)
		if err != nil {
			return err
		}
		_, err = f.Write(data)
		f.Close()
		if err != nil {
			return err
		}
		e.files[name] = data
		path := "/bin/scan" + name
		if err := e.s.Install(path, progScan("/disk/"+name, len(data)), 0o755, 0, 0); err != nil {
			return err
		}
		e.progs[kScan] = append(e.progs[kScan], path)
	}
	return fs.Sync()
}

// pick draws the next job from the seeded stream: a kind by weight, then a
// variant of it. Churn programs are per slot.
func (e *jobsEnv) pick(sl int) (uint8, string) {
	r := e.rng.Intn(100)
	kind := e.cfg.mix[len(e.cfg.mix)-1].kind
	for _, m := range e.cfg.mix {
		if r < m.weight {
			kind = m.kind
			break
		}
		r -= m.weight
	}
	progs := e.progs[kind]
	if kind == kChurn {
		progs = progs[sl*3 : sl*3+3]
	}
	return kind, progs[e.rng.Intn(len(progs))]
}

// spawn starts the next job in slot i at now.
func (e *jobsEnv) spawn(i int, now clock) error {
	kind, path := e.pick(i)
	e.nextJob++
	sl := slot{kind: kind, id: e.nextJob}
	on := e.tr.on.Load()
	if on {
		sl.span = e.tr.id()
		sl.t0 = e.tr.now()
	}
	sl.start = now
	p, err := e.s.Spawn(path, []string{kindNames[kind]}, types.UserCred(100+i, 10))
	if on {
		e.tr.record(spSpawn, e.tr.id(), sl.span, sl.id, sl.t0, e.tr.now(), noKind)
	}
	if err != nil {
		return fmt.Errorf("spawn %s: %w", path, err)
	}
	sl.p = p
	e.slots[i] = sl
	return nil
}

// tick runs one scheduler pass, then retires every finished job and refills
// its slot. The clocks are read once, and only on a pass that retires a
// job, so reading them costs little next to the passes.
func (e *jobsEnv) tick(ph *phase) error {
	on := e.tr.on.Load()
	var id, t0 int64
	if on {
		id = e.tr.id()
		e.step.Store(id)
		t0 = e.tr.now()
	}
	e.s.Step()
	e.passes++
	if on {
		e.tr.record(spStep, id, 0, 0, t0, e.tr.now(), noKind)
	}
	var now clock
	for i := range e.slots {
		sl := &e.slots[i]
		if sl.p == nil || sl.p.Alive() {
			continue
		}
		if now.wall.IsZero() {
			now = readClock()
		}
		e.finish(sl, ph, now)
		sl.p = nil
		if e.spawning {
			if err := e.spawn(i, now); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish retires a job at now: its latency goes to the phase, its outcome
// to the digest while the warm-up batch is open.
func (e *jobsEnv) finish(sl *slot, ph *phase, now clock) {
	status := sl.p.ExitStatus
	e.statuses[status]++
	ph.done(sl.start, now)
	if status != 0 {
		ph.fail(fmt.Sprintf("job %d (%s) exited with status %#x", sl.id, kindNames[sl.kind], status))
	}
	if e.tr.on.Load() && sl.t0 != 0 {
		e.tr.record(spJob, sl.span, 0, sl.id, sl.t0, e.tr.now(), sl.kind)
	}
	e.completed++
	if e.dig.done {
		return
	}
	ticks := e.s.K.Now()
	var b [8 * 5]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(sl.id))
	binary.LittleEndian.PutUint64(b[8:], uint64(sl.kind))
	binary.LittleEndian.PutUint64(b[16:], uint64(status))
	binary.LittleEndian.PutUint64(b[24:], uint64(e.passes))
	binary.LittleEndian.PutUint64(b[32:], uint64(ticks))
	e.dig.h.Write(b[:])
	e.dig.kinds[sl.kind]++
	if e.completed == e.cfg.warmJobs {
		e.dig.passes, e.dig.ticks = e.passes, ticks
		for _, n := range e.dig.kinds {
			binary.LittleEndian.PutUint64(b[0:], uint64(n))
			e.dig.h.Write(b[:8])
		}
		binary.LittleEndian.PutUint64(b[0:], uint64(e.passes))
		binary.LittleEndian.PutUint64(b[8:], uint64(ticks))
		e.dig.h.Write(b[:16])
		e.dig.done = true
	}
}

func (e *jobsEnv) warmed(ph *phase) bool { return e.completed >= e.cfg.warmJobs }

// drain stops spawning and runs until every slot's job has exited.
func (e *jobsEnv) drain(ph *phase) error {
	e.spawning = false
	for n := 0; ; n++ {
		busy := false
		for i := range e.slots {
			if e.slots[i].p != nil {
				busy = true
			}
		}
		if !busy {
			return nil
		}
		if n > 10_000_000 {
			return fmt.Errorf("jobs did not drain")
		}
		if err := e.tick(ph); err != nil {
			return err
		}
	}
}

// check verifies the outputs after the drain: every job exited 0, and the
// disk holds exactly the preloaded set, unchanged and structurally sound.
func (e *jobsEnv) check() error {
	for st, n := range e.statuses {
		if st != 0 {
			return fmt.Errorf("%d jobs exited with status %#x", n, st)
		}
	}
	if e.disk == nil {
		return nil
	}
	cl := e.s.Client(types.RootCred())
	ents, err := cl.ReadDir("/disk")
	if err != nil {
		return err
	}
	var names []string
	for _, en := range ents {
		names = append(names, en.Name)
	}
	sort.Strings(names)
	want := make([]string, 0, len(e.files))
	for n := range e.files {
		want = append(want, n)
	}
	sort.Strings(want)
	if fmt.Sprint(names) != fmt.Sprint(want) {
		return fmt.Errorf("/disk holds %v after the drain, want the preloaded set %v", names, want)
	}
	for name, data := range e.files {
		got, err := cl.ReadFile("/disk/" + name)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("/disk/%s changed during the run", name)
		}
	}
	if bad := e.disk.Fsck(); len(bad) != 0 {
		return fmt.Errorf("fsck: %v", bad)
	}
	return nil
}

func (e *jobsEnv) counters() counters {
	c := counters{passes: e.passes, ticks: e.s.K.Now()}
	if e.dev != nil {
		c.devReads, c.devWrites, c.devSyncs = e.dev.reads.Load(), e.dev.writes.Load(), e.dev.syncs.Load()
	}
	return c
}

func (e *jobsEnv) close() {
	if e.disk != nil {
		e.disk.Sync()
		e.disk = nil
	}
	e.s.Close()
}

// digestHex is the warm-up batch's digest.
func (e *jobsEnv) digestHex() string { return fmt.Sprintf("%016x", e.dig.h.Sum64()) }

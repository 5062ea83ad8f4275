package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"

	"repro"
	"repro/internal/procfs"
	"repro/internal/rfs"
	"repro/internal/tools"
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/vfs"
	"repro/internal/xout"
)

const (
	progSpin  = "loop:\tjmp loop\n"
	progPause = `
loop:	movi r0, SYS_pause
	syscall
	jmp loop
`
)

// The observe_rfs population and pacing.
const (
	observeProcs = 300 // population, spinners included
	spinnersPer  = 2   // spinning targets per controller
	roundPasses  = 2   // simulation passes run between rounds
	warmRounds   = 200
)

// observeConfig describes the observe_rfs workload.
type observeConfig struct {
	controllers int
	// bare serves and dials without the Transport, Locker and Conn
	// wrappers (the transparency test's reference).
	bare bool
}

// result is one controller request's outcome.
type result struct {
	start, end clock
	err        error
}

// controller issues a seeded mix of /proc requests over its own rfs.Client
// on the shared connection, one request per round.
type controller struct {
	e        *observeEnv
	id       int
	rng      *rand.Rand
	cl       *rfs.Client
	tt       *timedTransport // nil when bare
	spinners []int           // attach targets
	targets  []int           // status and as targets: spinners and parked
	nextOp   int64
	buf      bytes.Buffer
	page     []byte
	start    chan struct{}
	done     chan result
}

// observeEnv is a booted observe_rfs workload: a simulated system served
// over loopback TCP, and its controllers.
type observeEnv struct {
	cfg      observeConfig
	s        *repro.System
	tr       *tracer
	stepMu   *sync.Mutex // the server lock's mutex: the benchmark's own passes bypass its timing
	ln       net.Listener
	conn     *countConn
	mux      *rfs.MuxTransport
	ctls     []*controller
	wg       sync.WaitGroup // server and controller goroutines
	textEnd  uint32         // end of the spinners' text: PIOCGREG PCs fall below it
	psLines  int            // lines in a ps listing of the static population
	passes   int64
	ctlAlive bool
}

func setupObserve(cfg observeConfig, seed int64, tr *tracer) (*observeEnv, error) {
	s := repro.NewSystem(repro.Options{NCPU: 1})
	e := &observeEnv{cfg: cfg, s: s, tr: tr}
	fail := func(err error) (*observeEnv, error) {
		e.close()
		return nil, err
	}
	img, err := s.Assemble(progSpin)
	if err != nil {
		return fail(err)
	}
	e.textEnd = xout.TextBase + uint32(len(img.Text))
	if err := s.Install("/bin/spin", progSpin, 0o755, 0, 0); err != nil {
		return fail(err)
	}
	if err := s.Install("/bin/parked", progPause, 0o755, 0, 0); err != nil {
		return fail(err)
	}
	nspin := spinnersPer * cfg.controllers
	var spinners, parked []int
	for i := 0; i < observeProcs; i++ {
		path, name, list := "/bin/parked", fmt.Sprintf("parked%d", i), &parked
		if i < nspin {
			path, name, list = "/bin/spin", fmt.Sprintf("spin%d", i), &spinners
		}
		p, err := s.Spawn(path, []string{name}, types.UserCred(100+i%16, 10))
		if err != nil {
			return fail(err)
		}
		*list = append(*list, p.Pid)
	}
	// Park the population: everyone but the spinners blocks in pause(2).
	s.Run(observeProcs + 50)
	var local bytes.Buffer
	if err := tools.PS(s.Client(types.RootCred()), &local); err != nil {
		return fail(err)
	}
	e.psLines = bytes.Count(local.Bytes(), []byte("\n"))

	var conn net.Conn
	var lock sync.Locker
	if cfg.bare {
		mu := &sync.Mutex{}
		lock, e.stepMu = mu, mu
	} else {
		l := &timedLocker{tr: tr}
		lock, e.stepMu = l, &l.mu
	}
	srv := rfs.NewServer(s.NS, lock)
	if e.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return fail(err)
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		c, err := e.ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		srv.ServeConn(c)
	}()
	if conn, err = net.Dial("tcp", e.ln.Addr().String()); err != nil {
		return fail(err)
	}
	if !cfg.bare {
		e.conn = &countConn{Conn: conn}
		conn = e.conn
	}
	if e.mux, err = rfs.NewMuxTransport(conn); err != nil {
		conn.Close()
		return fail(err)
	}

	// Each controller owns a disjoint slice of the spinners and of the
	// parked population.
	per := len(parked) / cfg.controllers
	for c := 0; c < cfg.controllers; c++ {
		ctl := &controller{
			e:        e,
			id:       c,
			rng:      rand.New(rand.NewSource(seed*1000003 + int64(c))),
			spinners: spinners[c*spinnersPer : (c+1)*spinnersPer],
			page:     make([]byte, 4096),
			start:    make(chan struct{}),
			done:     make(chan result),
		}
		ctl.targets = append(append([]int(nil), ctl.spinners...), parked[c*per:(c+1)*per]...)
		var t rfs.Transport = e.mux
		if !cfg.bare {
			ctl.tt = &timedTransport{t: e.mux, tr: tr}
			t = ctl.tt
		}
		ctl.cl = rfs.NewClient(t, types.RootCred())
		e.ctls = append(e.ctls, ctl)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for range ctl.start {
				ctl.done <- ctl.request()
			}
		}()
	}
	e.ctlAlive = true
	return e, nil
}

// request issues one request drawn from the controller's seeded mix.
func (c *controller) request() result {
	var kind uint8
	switch r := c.rng.Intn(100); {
	case r < 10:
		kind = kPS
	case r < 60:
		kind = kAttach
	case r < 85:
		kind = kStatus
	default:
		kind = kAS
	}
	c.nextOp++
	op := int64(c.id)<<40 | c.nextOp
	tr := c.e.tr
	on := tr.on.Load()
	var id, t0 int64
	if on {
		id, t0 = tr.id(), tr.now()
		c.tt.req, c.tt.op = id, op
	}
	start := readClock()
	err := c.do(kind)
	end := readClock()
	if on {
		tr.record(spRequest, id, 0, op, t0, tr.now(), kind)
	}
	if err != nil {
		err = fmt.Errorf("controller %d %s: %w", c.id, kindNames[kind], err)
	}
	return result{start: start, end: end, err: err}
}

func (c *controller) do(kind uint8) error {
	switch kind {
	case kPS:
		c.buf.Reset()
		if err := tools.PS(c.cl, &c.buf); err != nil {
			return err
		}
		if n := bytes.Count(c.buf.Bytes(), []byte("\n")); n != c.e.psLines {
			return fmt.Errorf("listing has %d lines, want %d", n, c.e.psLines)
		}
		return nil
	case kAttach:
		return c.attach(c.spinners[c.rng.Intn(len(c.spinners))])
	case kStatus:
		pid := c.targets[c.rng.Intn(len(c.targets))]
		f, err := c.cl.Open("/procx/"+procfs.PidName(pid)+"/status", vfs.ORead)
		if err != nil {
			return err
		}
		n, err := f.Read(c.page)
		f.Close()
		if err != nil {
			return err
		}
		if n == 0 {
			return errors.New("empty status")
		}
		return nil
	default:
		pid := c.targets[c.rng.Intn(len(c.targets))]
		f, err := c.cl.Open("/procx/"+procfs.PidName(pid)+"/as", vfs.ORead)
		if err != nil {
			return err
		}
		n, err := f.Pread(c.page, xout.StackTop-int64(len(c.page)))
		f.Close()
		if err != nil {
			return err
		}
		if n != len(c.page) {
			return fmt.Errorf("stack read returned %d bytes, want %d", n, len(c.page))
		}
		return nil
	}
}

// attach is the debugger's attach cycle: open, stop, read the registers,
// set running, close. The stopped PC must lie in the target's text.
func (c *controller) attach(pid int) error {
	f, err := c.cl.Open("/proc/"+procfs.PidName(pid), vfs.ORead|vfs.OWrite)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Ioctl(procfs.PIOCSTOP, nil); err != nil {
		return err
	}
	var regs vcpu.Regs
	if err := f.Ioctl(procfs.PIOCGREG, &regs); err != nil {
		return err
	}
	if regs.PC < xout.TextBase || regs.PC >= c.e.textEnd {
		return fmt.Errorf("pid %d stopped at pc %#x, outside its text [%#x,%#x)", pid, regs.PC, xout.TextBase, c.e.textEnd)
	}
	return f.Ioctl(procfs.PIOCRUN, nil)
}

// tick runs one round: every controller issues one request, concurrently on
// the shared connection; then the benchmark advances the simulation.
func (e *observeEnv) tick(ph *phase) error {
	for _, c := range e.ctls {
		c.start <- struct{}{}
	}
	for _, c := range e.ctls {
		r := <-c.done
		ph.done(r.start, r.end)
		if r.err != nil {
			ph.fail(r.err.Error())
		}
	}
	on := e.tr.on.Load()
	e.stepMu.Lock()
	for i := 0; i < roundPasses; i++ {
		var id, t0 int64
		if on {
			id, t0 = e.tr.id(), e.tr.now()
		}
		e.s.Step()
		if on {
			e.tr.record(spStep, id, 0, 0, t0, e.tr.now(), noKind)
		}
	}
	e.passes += roundPasses
	e.stepMu.Unlock()
	return nil
}

func (e *observeEnv) warmed(ph *phase) bool { return ph.ops >= warmRounds*e.cfg.controllers }

// drain stops the controllers; their last requests have already completed.
func (e *observeEnv) drain(ph *phase) error {
	e.stopControllers()
	return nil
}

func (e *observeEnv) stopControllers() {
	if e.ctlAlive {
		for _, c := range e.ctls {
			close(c.start)
		}
		e.ctlAlive = false
	}
}

// remotePS is a ps listing over rfs; localPS the same on the server's own
// name space.
func (e *observeEnv) remotePS() ([]byte, error) {
	var b bytes.Buffer
	err := tools.PS(e.ctls[0].cl, &b)
	return b.Bytes(), err
}

func (e *observeEnv) localPS() ([]byte, error) {
	var b bytes.Buffer
	e.stepMu.Lock()
	defer e.stepMu.Unlock()
	err := tools.PS(e.s.Client(types.RootCred()), &b)
	return b.Bytes(), err
}

// check compares ps over rfs with local ps at the quiescent end: nothing
// steps the simulation any more, so the two must agree byte for byte.
func (e *observeEnv) check() error {
	remote, err := e.remotePS()
	if err != nil {
		return fmt.Errorf("remote ps: %w", err)
	}
	local, err := e.localPS()
	if err != nil {
		return fmt.Errorf("local ps: %w", err)
	}
	if !bytes.Equal(remote, local) {
		return fmt.Errorf("ps over rfs differs from local ps:\n%s---\n%s", remote, local)
	}
	return nil
}

func (e *observeEnv) counters() counters {
	c := counters{passes: e.passes, ticks: e.s.K.Now()}
	if e.conn != nil {
		c.wireBytes = e.conn.bytes.Load()
	}
	for _, ctl := range e.ctls {
		if ctl.tt != nil {
			c.roundTrips += ctl.tt.rts.Load()
		}
	}
	if e.mux != nil {
		st := e.mux.Stats()
		c.retries = st.Expired + st.Retried + st.Orphans
	}
	return c
}

func (e *observeEnv) close() {
	e.stopControllers()
	if e.mux != nil {
		e.mux.Close()
	}
	if e.ln != nil {
		e.ln.Close()
	}
	e.wg.Wait()
	e.s.Close()
}

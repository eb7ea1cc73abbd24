package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scale/internal/enb"
	"scale/internal/guti"
	"scale/internal/hss"
	"scale/internal/s1ap"
	"scale/internal/transport"
)

// The eNB-side generator. Each link is one S1 connection to the MLB
// with its own enb.Emulator (the emulator is not safe for concurrent
// use, so the link's mutex guards it). A slot is one procedure in
// flight: its goroutine starts a procedure and waits; the link's read
// loop feeds every downlink to the emulator and signals the one slot
// the downlink belongs to (looked up by eNB UE id), so waking a slot
// costs one channel send however many procedures are in flight.

// procKind names the cycle a slot runs.
type procKind uint8

const (
	// procAttachRelease attaches a device and releases it to Idle: the
	// set-up of the standing population.
	procAttachRelease procKind = iota
	// procAttachDetach attaches a fresh IMSI, then detaches it with a
	// switch-off detach (which has no downlink).
	procAttachDetach
	// procServiceRelease brings an Idle device Active with a service
	// request, then releases it back to Idle.
	procServiceRelease
	// procTAU runs one tracking-area update of an Idle device.
	procTAU
)

// exchange is the S1AP message count of one procedure as the eNB sees
// it: uplinks sent and downlinks received.
type exchange struct{ up, down int }

// exchangeOf is each procedure's defined exchange:
//
//	attach:  InitialUE(AttachRequest), UplinkNAS(AuthResponse),
//	         UplinkNAS(SMComplete), ICSResponse, UplinkNAS(AttachComplete)
//	         against DownlinkNAS(AuthRequest), DownlinkNAS(SMCommand),
//	         ICSRequest, DownlinkNAS(AttachAccept)
//	release: UEContextReleaseRequest, UEContextReleaseComplete
//	         against UEContextReleaseCommand
//	detach:  InitialUE(DetachRequest, switch-off), no downlink
//	service: InitialUE(ServiceRequest), ICSResponse
//	         against ICSRequest, DownlinkNAS(ServiceAccept)
//	tau:     InitialUE(TAURequest) against DownlinkNAS(TAUAccept)
var exchangeOf = [...]exchange{
	procAttachRelease:  {up: 5 + 2, down: 4 + 1},
	procAttachDetach:   {up: 5 + 1, down: 4},
	procServiceRelease: {up: 2 + 2, down: 2 + 1},
	procTAU:            {up: 1, down: 1},
}

// procTimeout fails a procedure whose completing downlink never came.
const procTimeout = 10 * time.Second

// device is one emulated UE as the generator tracks it.
type device struct {
	imsi uint64
	ue   *enb.UE // set on the device's first procedure
	// tai is the tracking area of the device's last completed TAU.
	tai uint16
}

// counters tally one phase's procedures.
type counters struct {
	attempted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
}

// tally counts output-check violations the links see as they happen.
type tally struct {
	// mismatched counts completed procedures whose S1AP exchange
	// differed from exchangeOf.
	mismatched atomic.Uint64
	// foreignGUTI counts accepted GUTIs not carrying the MLB's PLMN,
	// MMEGI and MMEC.
	foreignGUTI atomic.Uint64
}

// link is one eNB-side S1 connection.
type link struct {
	conn  *transport.Conn
	cells []uint32
	tally *tally
	want  guti.GUTI // PLMN/MMEGI/MMEC every accepted GUTI must carry

	mu      sync.Mutex
	emu     *enb.Emulator
	waiting map[uint32]*slot // eNB UE id → slot awaiting its downlinks
	cur     *slot            // slot an emulator call is made for
	// timed turns on the generator's own cost accounting (genNS) and
	// message capture for the codec replays.
	timed   bool
	genNS   int64
	capture *capture
	werr    error

	wg sync.WaitGroup
}

// dialLink connects one link and announces its cells with S1 Setup.
// wrap, when set, wraps the TCP connection before framing (trace runs
// time its writes).
func dialLink(addr string, idx int, seed int64, t *tally, want guti.GUTI, wrap func(net.Conn) net.Conn) (*link, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial MLB: %w", err)
	}
	if wrap != nil {
		nc = wrap(nc)
	}
	l := &link{
		conn:    transport.NewConn(nc),
		tally:   t,
		want:    want,
		emu:     enb.New(),
		waiting: make(map[uint32]*slot),
	}
	l.emu.Seed(uint64(seed)*4099 + uint64(idx) + 1)
	l.emu.Uplink = l.uplink
	for c := 0; c < cellsPerLink; c++ {
		id := uint32(1000*(idx+1) + c + 1)
		tai := uint16(100*(idx+1) + c + 1)
		l.cells = append(l.cells, id)
		req := l.emu.AddCell(id, []uint16{tai})
		if err := l.conn.Write(transport.StreamCommon, s1ap.Marshal(req)); err != nil {
			l.conn.Close()
			return nil, fmt.Errorf("S1 setup: %w", err)
		}
	}
	l.wg.Add(1)
	go l.readLoop()
	return l, nil
}

const cellsPerLink = 4

// uplink is the emulator's Uplink hook; it runs with l.mu held.
func (l *link) uplink(_ uint32, msg s1ap.Message) {
	if l.cur != nil {
		l.cur.sent++
	}
	if l.capture != nil && !l.capture.full() {
		l.capture.add(s1ap.Marshal(msg), true)
	}
	w := transport.GetFrame()
	s1ap.MarshalTo(w, msg)
	if err := l.conn.WriteFrame(transport.StreamUE, 0, w); err != nil && l.werr == nil {
		l.werr = err
	}
}

// close shuts the connection and waits for the read loop.
func (l *link) close() {
	l.conn.Close()
	l.wg.Wait()
}

// enbUEID extracts the eNB UE id a downlink is addressed to.
func enbUEID(msg s1ap.Message) (uint32, bool) {
	switch m := msg.(type) {
	case *s1ap.DownlinkNASTransport:
		return m.ENBUEID, true
	case *s1ap.InitialContextSetupRequest:
		return m.ENBUEID, true
	case *s1ap.UEContextReleaseCommand:
		return m.ENBUEID, true
	}
	return 0, false
}

func (l *link) readLoop() {
	defer l.wg.Done()
	for {
		frame, err := l.conn.Read()
		if err != nil {
			return
		}
		var t0 time.Time
		if l.timed {
			t0 = time.Now()
		}
		msg, err := s1ap.Unmarshal(frame.Payload)
		frame.Free() // the decode copied every field out
		if err != nil {
			continue
		}
		if _, ok := msg.(*s1ap.S1SetupResponse); ok {
			continue
		}
		id, addressed := enbUEID(msg)
		l.mu.Lock()
		if l.capture != nil && !l.capture.full() {
			l.capture.add(s1ap.Marshal(msg), false)
		}
		var s *slot
		if addressed {
			s = l.waiting[id]
		}
		cell := l.cells[0]
		var before enb.Stats
		if s != nil {
			cell = s.cell
			before = l.emu.Stats()
			s.recv++
		}
		l.cur = s
		l.emu.HandleDownlink(cell, msg)
		if s != nil {
			s.advance(before)
		}
		l.cur = nil
		if l.timed {
			l.genNS += int64(time.Since(t0))
		}
		l.mu.Unlock()
	}
}

// slot is one procedure in flight.
type slot struct {
	link *link
	kind procKind
	rng  *rand.Rand
	// devs are the devices the slot cycles through; fresh draws new
	// IMSIs instead (attach-detach).
	devs  []*device
	next  int
	fresh *freshIMSIs

	// Procedure in flight (guarded by link.mu while it runs).
	dev        *device
	cell       uint32
	key        uint32 // eNB UE id the procedure's downlinks carry
	phase      uint8
	sent, recv int
	start      time.Time
	lat        time.Duration
	done       chan bool
	timer      *time.Timer // procTimeout watchdog, reset per procedure
}

func newSlot(l *link, kind procKind, seed int64) *slot {
	t := time.NewTimer(procTimeout)
	t.Stop()
	return &slot{link: l, kind: kind, rng: rand.New(rand.NewSource(seed)), done: make(chan bool, 1), timer: t}
}

// freshIMSIs hands out never-attached IMSIs: first the pool provisioned
// at set-up, in a seeded order, then (should a run outpace the pool)
// further IMSIs provisioned as they are drawn.
type freshIMSIs struct {
	imsis []uint64
	db    *hss.DB
	next  atomic.Int64
}

func (f *freshIMSIs) take() uint64 {
	i := f.next.Add(1) - 1
	if i < int64(len(f.imsis)) {
		return f.imsis[i]
	}
	imsi := freshBase + uint64(i)
	f.db.Provision(hss.Subscriber{IMSI: imsi, K: hss.KeyForIMSI(imsi), Profile: hss.DefaultProfile})
	return imsi
}

// begin starts the slot's next procedure.
func (s *slot) begin() error {
	var dev *device
	if s.fresh != nil {
		dev = &device{imsi: s.fresh.take()}
	} else {
		dev = s.devs[s.next%len(s.devs)]
		s.next++
	}
	l := s.link
	l.mu.Lock()
	defer l.mu.Unlock()
	t0 := time.Now()
	if dev.ue == nil {
		dev.ue = l.emu.UEFor(dev.imsi)
	}
	s.dev = dev
	s.cell = l.cells[s.rng.Intn(len(l.cells))]
	s.phase, s.sent, s.recv = 0, 0, 0
	s.start = t0
	l.cur = s
	var err error
	switch s.kind {
	case procAttachRelease, procAttachDetach:
		err = l.emu.StartAttach(dev.imsi, s.cell)
	case procServiceRelease:
		err = l.emu.StartServiceRequest(dev.imsi, s.cell)
	case procTAU:
		err = l.emu.TAU(dev.imsi, s.cell)
	}
	l.cur = nil
	if err == nil && l.werr != nil {
		err = l.werr
	}
	if err == nil {
		s.key = dev.ue.ENBUEID
		l.waiting[s.key] = s
	}
	if l.timed {
		l.genNS += int64(time.Since(t0))
	}
	return err
}

// advance moves the procedure on after a downlink; it runs in the read
// loop with link.mu held.
func (s *slot) advance(before enb.Stats) {
	l, ue := s.link, s.dev.ue
	if l.emu.Stats().Rejects > before.Rejects {
		s.finish(false)
		return
	}
	switch s.kind {
	case procAttachRelease, procServiceRelease:
		switch {
		case s.phase == 0 && ue.State == enb.Active:
			if s.kind == procAttachRelease {
				s.checkGUTI()
			}
			s.phase = 1
			// The emulator's release is written for synchronous hosts:
			// on a socket the UE is still Active when the call returns,
			// which it reports as ErrProcedure. The request was sent.
			if err := l.emu.ReleaseToIdle(s.dev.imsi); err != nil && !errors.Is(err, enb.ErrProcedure) {
				s.finish(false)
			}
		case s.phase == 1 && ue.State == enb.Idle:
			s.finish(true)
		}
	case procAttachDetach:
		if ue.State == enb.Active {
			s.checkGUTI()
			s.lat = time.Since(s.start)
			if err := l.emu.Detach(s.dev.imsi, true); err != nil {
				s.finish(false)
				return
			}
			s.finish(true)
		}
	case procTAU:
		if l.emu.Stats().TAUs > before.TAUs {
			s.dev.tai = l.emu.TAIOf(s.cell)
			s.finish(true)
		}
	}
}

func (s *slot) checkGUTI() {
	g := s.dev.ue.GUTI
	if g.PLMN != s.link.want.PLMN || g.MMEGI != s.link.want.MMEGI || g.MMEC != s.link.want.MMEC {
		s.link.tally.foreignGUTI.Add(1)
	}
}

// finish ends the procedure in flight and wakes the slot.
func (s *slot) finish(ok bool) {
	if s.kind != procAttachDetach {
		s.lat = time.Since(s.start)
	}
	delete(s.link.waiting, s.key)
	if ok {
		if want := exchangeOf[s.kind]; s.sent != want.up || s.recv != want.down {
			s.link.tally.mismatched.Add(1)
			ok = false
		}
	}
	s.done <- ok
}

// abandon forgets a procedure that timed out.
func (s *slot) abandon() {
	s.link.mu.Lock()
	delete(s.link.waiting, s.key)
	s.link.mu.Unlock()
}

// phaseRun drives a set of slots: each runs procedures back to back
// (a closed loop) until stop is set, or, with once, until it has
// visited each of its devices one time.
type phaseRun struct {
	slots []*slot
	cnt   *counters
	once  bool
	stop  atomic.Bool
	// afterEach, when set, runs in the slot goroutine after every
	// completed procedure (the serial phase records latencies with it).
	afterEach func(s *slot)
	wg        sync.WaitGroup
	errMu     sync.Mutex
	err       error
}

func (p *phaseRun) start() {
	for _, s := range p.slots {
		p.wg.Add(1)
		go p.loop(s)
	}
}

// finish stops the slots and waits for each to finish its procedure in
// flight.
func (p *phaseRun) finish() error {
	p.stop.Store(true)
	return p.wait()
}

// wait waits for the slots to end on their own (once runs).
func (p *phaseRun) wait() error {
	p.wg.Wait()
	return p.err
}

func (p *phaseRun) setErr(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
}

func (p *phaseRun) loop(s *slot) {
	defer p.wg.Done()
	defer s.timer.Stop()
	for !p.stop.Load() {
		if p.once && s.next >= len(s.devs) {
			return
		}
		p.cnt.attempted.Add(1)
		ok, err := s.runOne()
		switch {
		case err != nil:
			p.cnt.failed.Add(1)
			p.setErr(err)
			return
		case !ok:
			p.cnt.failed.Add(1)
			continue
		}
		p.cnt.completed.Add(1)
		if p.afterEach != nil {
			p.afterEach(s)
		}
	}
}

// runOne runs one procedure on s and waits for it. ok is false for a
// procedure that failed (rejected, or off its defined exchange); err is
// set when the slot cannot go on.
func (s *slot) runOne() (ok bool, err error) {
	if err := s.begin(); err != nil {
		return false, fmt.Errorf("start procedure: %w", err)
	}
	s.timer.Reset(procTimeout)
	select {
	case ok := <-s.done:
		return ok, nil
	case <-s.timer.C:
		s.abandon()
		return false, fmt.Errorf("procedure timed out after %v", procTimeout)
	}
}

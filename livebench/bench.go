package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"scale/internal/guti"
)

// IMSI plan: the standing population, then a disjoint block of fresh
// IMSIs for attach-detach, then one probe subscriber the traced run's
// own S6a calls use.
const (
	popBase   = 310260000000000
	freshBase = popBase + 10_000_000
	probeIMSI = popBase + 20_000_000
)

// bench is one deployed stack with its generator.
type bench struct {
	cfg    runConfig
	st     *stack
	links  []*link
	tally  tally
	pop    []*device   // standing population, in attach order
	byLink [][]*device // pop split by the link holding each device
	fresh  *freshIMSIs
	run    counters // serial plus loaded phase procedures
	nSlots int64    // slots created so far (seeds each slot's PRNG)
	// setupSteal is the share of CPU time stolen during set-up.
	setupSteal float64
}

// numLinks is the generator's S1 connection count: one per CPU, at
// most two.
func numLinks() int {
	if n := runtime.NumCPU(); n < 2 {
		return 1
	}
	return 2
}

func (cfg runConfig) population() int {
	if cfg.popDiv > 1 {
		return cfg.w.population / cfg.popDiv
	}
	return cfg.w.population
}

// setUp deploys a stack, provisions the subscribers and attaches the
// standing population, releasing each device to Idle (the release is
// what replicates its state to the second MMP). It returns once every
// standing device is held by two MMPs, with the unstolen time that took
// (see steal.go).
func setUp(cfg runConfig, scfg stackConfig) (*bench, time.Duration, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	n := cfg.population()
	b := &bench{cfg: cfg}
	subs := make([]uint64, 0, n+1)
	for _, i := range rng.Perm(n) {
		subs = append(subs, popBase+uint64(i))
	}
	if cfg.w.kind == procAttachDetach {
		nf := int(freshPerSecond * cfg.seconds.Seconds())
		b.fresh = &freshIMSIs{imsis: make([]uint64, 0, nf)}
		for _, i := range rng.Perm(nf) {
			b.fresh.imsis = append(b.fresh.imsis, freshBase+uint64(i))
		}
	}
	scfg.subscribers = append(subs, probeIMSI)
	if b.fresh != nil {
		scfg.subscribers = append(scfg.subscribers, b.fresh.imsis...)
	}

	t0, ticks0 := time.Now(), readTicks()
	st, err := deploy(scfg)
	if err != nil {
		return nil, 0, err
	}
	b.st = st
	if b.fresh != nil {
		b.fresh.db = st.db
	}
	want := guti.GUTI{PLMN: plmn, MMEGI: mmegi, MMEC: mmec}
	b.byLink = make([][]*device, numLinks())
	for i := range b.byLink {
		l, err := dialLink(st.mlb.ENBAddr(), i, cfg.seed, &b.tally, want, st.wrapENB())
		if err != nil {
			b.tearDown()
			return nil, 0, err
		}
		b.links = append(b.links, l)
	}
	for i, imsi := range subs {
		d := &device{imsi: imsi}
		b.pop = append(b.pop, d)
		b.byLink[i%len(b.links)] = append(b.byLink[i%len(b.links)], d)
	}
	var cnt counters
	p := &phaseRun{slots: b.slots(inFlight, procAttachRelease), cnt: &cnt, once: true}
	p.start()
	if err := p.wait(); err != nil {
		b.tearDown()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if f := cnt.failed.Load(); f > 0 {
		b.tearDown()
		return nil, 0, fmt.Errorf("set-up: %d attaches failed", f)
	}
	// The replica push rides behind each release; wait for all of them.
	deadline := time.Now().Add(10 * time.Second)
	for b.contexts() < 2*n {
		if time.Now().After(deadline) {
			b.tearDown()
			return nil, 0, fmt.Errorf("set-up: %d of %d contexts stored", b.contexts(), 2*n)
		}
		time.Sleep(time.Millisecond)
	}
	wall, ticks1 := time.Since(t0), readTicks()
	b.setupSteal = stealShare(ticks0, ticks1)
	return b, unstolen(wall, ticks0, ticks1), nil
}

// slots builds n slots of one kind spread over the links, each link's
// devices dealt round-robin to that link's slots.
func (b *bench) slots(n int, kind procKind) []*slot {
	out := make([]*slot, n)
	for i := range out {
		l := i % len(b.links)
		out[i] = newSlot(b.links[l], kind, b.cfg.seed*7919+b.nSlots)
		b.nSlots++
		if kind == procAttachDetach {
			out[i].fresh = b.fresh
		}
	}
	for l, devs := range b.byLink {
		var mine []*slot
		for i := l; i < n; i += len(b.links) {
			mine = append(mine, out[i])
		}
		if len(mine) == 0 {
			continue
		}
		for i, d := range devs {
			s := mine[i%len(mine)]
			s.devs = append(s.devs, d)
		}
	}
	return out
}

// contexts counts UE contexts held across the agents (master and
// replica entries).
func (b *bench) contexts() int {
	n := 0
	for _, a := range b.st.agents {
		n += a.Engine.Store().Len()
	}
	return n
}

// detaches sums the engines' processed detaches.
func (b *bench) detaches() uint64 {
	var n uint64
	for _, a := range b.st.agents {
		n += a.Engine.Stats().Detaches
	}
	return n
}

// serialPhase runs one procedure at a time for d and returns each
// procedure's eNB-observed latency. window, when set, is called at the
// phase's start and end (traced runs snapshot counters there).
func (b *bench) serialPhase(d time.Duration, window func(start bool)) ([]time.Duration, error) {
	s := b.slots(1, b.cfg.w.kind)[0]
	var lat []time.Duration
	p := &phaseRun{slots: []*slot{s}, cnt: &b.run}
	base := b.detaches()
	p.afterEach = func(s *slot) {
		lat = append(lat, s.lat)
		if s.kind != procAttachDetach {
			return
		}
		// A switch-off detach has no downlink. Wait for the MMP to
		// process it, so the next attach does not queue behind it.
		base++
		deadline := time.Now().Add(procTimeout)
		for b.detaches() < base && time.Now().Before(deadline) {
			time.Sleep(20 * time.Microsecond)
		}
	}
	if window != nil {
		window(true)
	}
	p.start()
	time.Sleep(d)
	err := p.finish()
	if window != nil {
		window(false)
	}
	return lat, err
}

// loadStats measures the loaded phase's window. Throughput and CPU per
// procedure are taken over sub-windows of subWindow each, from the
// least disturbed quarter of them: the third quartile of throughput and
// the first quartile of CPU per procedure. Steal on the host does not
// only stretch the window (see steal.go); it also raises the CPU the
// stack spends per procedure, by about a tenth at 30% steal on
// tau-observed, and it comes in bursts. Over twelve tau-observed runs
// with 9 to 40% steal, the first quartile spread half as much as the
// median (0.033 against 0.069), while a change in the program moves
// every sub-window alike. Allocations are counted over the whole
// window. Throughput is per second of unstolen time.
type loadStats struct {
	procs      uint64
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	steal      float64 // share of CPU time stolen over the window
	// rate is the third quartile of sub-window throughput (procedures
	// per unstolen second) and cpuPerProc the first quartile of
	// sub-window CPU time per procedure.
	rate, cpuPerProc float64
}

// subWindow is the loaded phase's sampling period.
const subWindow = 500 * time.Millisecond

// loadMark is one sample of the loaded phase's counters.
type loadMark struct {
	at    time.Time
	procs uint64
	cpu   time.Duration
	ticks cpuTicks
}

// loadedPhase keeps the workload's loaded count of procedures in flight
// for d. The first tenth (at most 0.5 s) warms up; the rest is the
// measured window, bracketed by calls to window when it is set.
func (b *bench) loadedPhase(d time.Duration, window func(start bool)) (loadStats, error) {
	n := b.cfg.w.loaded
	if b.fresh == nil {
		// Every slot needs a standing device of its own; only the
		// smoke test's and the obs comparison's small populations
		// have fewer.
		n = min(n, len(b.pop))
	}
	p := &phaseRun{slots: b.slots(n, b.cfg.w.kind), cnt: &b.run}
	warm := d / 10
	if warm > 500*time.Millisecond {
		warm = 500 * time.Millisecond
	}
	p.start()
	time.Sleep(warm)
	var m0, m1 runtime.MemStats
	if window != nil {
		window(true)
	}
	mark := func() loadMark { return loadMark{time.Now(), b.run.completed.Load(), cpuTime(), readTicks()} }
	runtime.ReadMemStats(&m0)
	marks := []loadMark{mark()}
	end := marks[0].at.Add(d - warm)
	for next := marks[0].at.Add(subWindow); ; next = next.Add(subWindow) {
		if next.After(end) {
			next = end
		}
		time.Sleep(time.Until(next))
		marks = append(marks, mark())
		if !next.Before(end) {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	if window != nil {
		window(false)
	}
	err := p.finish()
	first, last := marks[0], marks[len(marks)-1]
	ls := loadStats{
		procs:      last.procs - first.procs,
		wall:       last.at.Sub(first.at),
		cpu:        last.cpu - first.cpu,
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		steal:      stealShare(first.ticks, last.ticks),
	}
	var rates, cpus []float64
	for i := 1; i < len(marks); i++ {
		n := float64(marks[i].procs - marks[i-1].procs)
		if n == 0 {
			continue
		}
		rates = append(rates, n/unstolen(marks[i].at.Sub(marks[i-1].at), marks[i-1].ticks, marks[i].ticks).Seconds())
		cpus = append(cpus, float64((marks[i].cpu-marks[i-1].cpu).Microseconds())/n)
	}
	if err == nil && len(rates) == 0 {
		err = fmt.Errorf("no procedure completed in the loaded phase")
	}
	if err == nil {
		ls.rate, ls.cpuPerProc = quartile(rates, 3), quartile(cpus, 1)
	}
	return ls, err
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runResult is a finished run's outcome before metrics are attached.
type runResult struct {
	result
	liveHeapMB float64
}

// finishRun settles the stack, runs the output checks, then drops the
// generator and measures the live heap the stack holds.
func (b *bench) finishRun(measureHeap bool) *runResult {
	r := &runResult{}
	r.problems = b.settleAndCheck()
	r.Attempted = b.run.attempted.Load()
	r.Failed = b.run.failed.Load()
	r.Correct = len(r.problems) == 0
	if measureHeap {
		for _, l := range b.links {
			l.close()
		}
		b.links, b.pop, b.byLink, b.fresh = nil, nil, nil, nil
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.liveHeapMB = float64(ms.HeapAlloc) / 1e6
	}
	return r
}

// tearDown closes the generator's links and the stack.
func (b *bench) tearDown() {
	for _, l := range b.links {
		l.close()
	}
	b.links = nil
	if b.st != nil {
		b.st.close()
		b.st = nil
	}
}

// openSlots bounds the procedures an open-loop run keeps in flight.
const openSlots = 64

// openPhase offers the workload's procedure at a fixed rate for d: an
// open loop, for the README's reference figures. Procedure k is due at
// start + k/rate and runs on a free slot; its latency counts from when
// it was due, so a stall charges every procedure it delays. late is how
// far behind schedule the generator started its worst procedure.
func (b *bench) openPhase(rate float64, d time.Duration) (lat []time.Duration, late time.Duration, err error) {
	free := make(chan *slot, openSlots)
	for _, s := range b.slots(openSlots, b.cfg.w.kind) {
		free <- s
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	for k := 0; k < int(rate*d.Seconds()); k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		s := <-free
		if l := time.Since(due); l > late {
			late = l
		}
		b.run.attempted.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, rerr := s.runOne()
			mu.Lock()
			switch {
			case rerr != nil:
				b.run.failed.Add(1)
				if err == nil {
					err = rerr
				}
			case !ok:
				b.run.failed.Add(1)
			default:
				b.run.completed.Add(1)
				lat = append(lat, s.start.Add(s.lat).Sub(due))
			}
			mu.Unlock()
			if rerr == nil {
				free <- s
			}
		}()
		mu.Lock()
		stop := err != nil
		mu.Unlock()
		if stop {
			break
		}
	}
	wg.Wait()
	return lat, late, err
}

package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"scale/internal/hss"
	"scale/internal/mlb"
	"scale/internal/nas"
	"scale/internal/obs"
	"scale/internal/s1ap"
	"scale/internal/sgw"
	"scale/internal/state"
	"scale/internal/transport"
	"scale/internal/wire"
)

// The traced run. It times calls into each layer's public functions
// from outside the program: wrapped connections under the eNB and agent
// links, timing around the HSS/S-GW Handle calls, the counters the
// program already exports (transport.Stats, Engine.Stats/BusyNS/
// Handled, QueueStats, Store.Len, the obs stage histograms), and
// isolated replays of captured messages through the codecs, the
// router, the store and a transport-free engine.

// layerMetric describes one per-layer figure.
type layerMetric struct {
	name, unit string
}

// layerMetrics lists the per-layer figures in report order.
var layerMetrics = []layerMetric{
	{"enb.gen_us_per_proc", "us"},
	{"s1ap.codec_ns_per_msg", "ns"},
	{"s1ap.codec_allocs_per_msg", "count"},
	{"nas.codec_ns_per_msg", "ns"},
	{"transport.frames_per_proc", "count"},
	{"transport.bytes_per_proc", "B"},
	{"transport.flushes_per_frame", "ratio"},
	{"transport.write_us_per_frame", "us"},
	{"mlb.route_ns_per_msg", "ns"},
	{"mlb.route_allocs_per_msg", "count"},
	{"mlb.max_mmp_share", "ratio"},
	{"agent.busy_frac_max", "ratio"},
	{"agent.queue_peak", "count"},
	{"mmp.msgs_per_proc", "count"},
	{"mmp.busy_us_per_proc", "us"},
	{"mmp.bounces_per_proc", "count"},
	{"mmp.replications_per_proc", "count"},
	{"mmp.engine_us_per_proc", "us"},
	{"mmp.engine_allocs_per_proc", "count"},
	{"state.contexts", "count"},
	{"state.context_bytes", "B"},
	{"state.get_ns", "ns"},
	{"state.apply_replica_ns", "ns"},
	{"s6a.calls_per_proc", "count"},
	{"s6a.handle_us_per_call", "us"},
	{"s6a.rtt_us", "us"},
	{"s11.calls_per_proc", "count"},
	{"s11.handle_us_per_call", "us"},
	{"s11.rtt_us", "us"},
	{"obs.mlb-route_us", "us"},
	{"obs.mmp_us", "us"},
	{"obs.s6a_us", "us"},
	{"obs.s11_us", "us"},
	{"obs.replicate_us", "us"},
	{"obs.extra_allocs_per_proc", "count"},
	{"obs.extra_cpu_us_per_proc", "us"},
	{"wait.serial_mean_us", "us"},
	{"wait.unattributed_us", "us"},
	{"wait.attributed_share", "ratio"},
}

// capture keeps encoded S1AP messages for the codec and routing
// replays.
type capture struct {
	limit    int
	up, down [][]byte
}

func (c *capture) full() bool { return len(c.up)+len(c.down) >= c.limit }

func (c *capture) add(b []byte, up bool) {
	if up {
		c.up = append(c.up, b)
	} else {
		c.down = append(c.down, b)
	}
}

// snapshot is the counters a traced window differences.
type snapshot struct {
	at        time.Time
	procs     uint64
	genNS     int64
	wire      transport.WireStats
	enbW      [2]int64 // eNB-link writes: calls, ns
	agentW    [2]int64 // agent-link writes: calls, ns
	s6a, s11  uint64   // calls
	busy      []int64
	handled   []uint64
	bounces   uint64
	replicate uint64
}

func (b *bench) snap() snapshot {
	s := snapshot{at: time.Now(), procs: b.run.completed.Load(), wire: transport.Stats()}
	for _, l := range b.links {
		l.mu.Lock()
		s.genNS += l.genNS
		l.mu.Unlock()
	}
	s.enbW = [2]int64{int64(b.st.enbWrites.calls.Load()), b.st.enbWrites.ns.Load()}
	s.agentW = [2]int64{int64(b.st.agentWrites.calls.Load()), b.st.agentWrites.ns.Load()}
	s.s6a, s.s11 = b.st.s6a.calls.Load(), b.st.s11.calls.Load()
	for _, a := range b.st.agents {
		s.busy = append(s.busy, a.Engine.BusyNS())
		s.handled = append(s.handled, a.Engine.Handled())
		es := a.Engine.Stats()
		s.bounces += es.ForwardsRequested
		s.replicate += es.ReplicationsSent
	}
	return s
}

// window differences two snapshots.
type window struct{ a, b snapshot }

func (w window) procs() float64 { return float64(w.b.procs - w.a.procs) }

func (w window) perProc(x float64) float64 {
	if w.procs() == 0 {
		return 0
	}
	return x / w.procs()
}

func (w window) busyNS() (sum, max int64) {
	for i := range w.a.busy {
		d := w.b.busy[i] - w.a.busy[i]
		sum += d
		if d > max {
			max = d
		}
	}
	return sum, max
}

func runTraced(cfg runConfig) (*result, error) {
	b, _, err := setUp(cfg, stackConfig{observed: cfg.w.observed, timed: true})
	if err != nil {
		return nil, err
	}
	defer b.tearDown()
	caps := make([]*capture, len(b.links))
	for i, l := range b.links {
		l.mu.Lock()
		l.timed = true
		l.mu.Unlock()
		caps[i] = &capture{limit: 4000}
	}

	m := map[string]float64{}
	serialDur := time.Duration(float64(cfg.seconds) * serialShare)
	var ser window
	lat, err := b.serialPhase(serialDur, func(start bool) {
		if start {
			ser.a = b.snap()
		} else {
			ser.b = b.snap()
		}
	})
	if err != nil {
		return nil, err
	}
	// Capture during the loaded phase's warm-up only, so the measured
	// window carries no capture cost.
	for i, l := range b.links {
		l.mu.Lock()
		l.capture = caps[i]
		l.mu.Unlock()
	}
	var ld window
	lstats, err := b.loadedPhase(cfg.seconds-serialDur, func(start bool) {
		if start {
			for _, l := range b.links {
				l.mu.Lock()
				l.capture = nil
				l.mu.Unlock()
			}
			ld.a = b.snap()
		} else {
			ld.b = b.snap()
		}
	})
	if err != nil {
		return nil, err
	}
	res := b.finishRun(false)

	wall := ld.b.at.Sub(ld.a.at)
	m["enb.gen_us_per_proc"] = ld.perProc(float64(ld.b.genNS-ld.a.genNS) / 1e3)
	frames := float64(ld.b.wire.FramesOut - ld.a.wire.FramesOut)
	m["transport.frames_per_proc"] = ld.perProc(frames)
	m["transport.bytes_per_proc"] = ld.perProc(float64(ld.b.wire.BytesOut - ld.a.wire.BytesOut))
	m["transport.flushes_per_frame"] = ratio(float64(ld.b.wire.FlushesOut-ld.a.wire.FlushesOut), frames)
	m["transport.write_us_per_frame"] = ratio(float64(ld.b.enbW[1]-ld.a.enbW[1]+ld.b.agentW[1]-ld.a.agentW[1])/1e3,
		float64(ld.b.enbW[0]-ld.a.enbW[0]+ld.b.agentW[0]-ld.a.agentW[0]))
	var handled, maxHandled float64
	for i := range ld.a.handled {
		d := float64(ld.b.handled[i] - ld.a.handled[i])
		handled += d
		if d > maxHandled {
			maxHandled = d
		}
	}
	m["mlb.max_mmp_share"] = ratio(maxHandled, handled)
	busy, maxBusy := ld.busyNS()
	m["agent.busy_frac_max"] = float64(maxBusy) / float64(wall.Nanoseconds())
	for _, a := range b.st.agents {
		if peak, _ := a.QueueStats(); float64(peak) > m["agent.queue_peak"] {
			m["agent.queue_peak"] = float64(peak)
		}
	}
	m["mmp.msgs_per_proc"] = ld.perProc(handled)
	m["mmp.busy_us_per_proc"] = ld.perProc(float64(busy) / 1e3)
	m["mmp.bounces_per_proc"] = ld.perProc(float64(ld.b.bounces - ld.a.bounces))
	m["mmp.replications_per_proc"] = ld.perProc(float64(ld.b.replicate - ld.a.replicate))
	m["s6a.calls_per_proc"] = ld.perProc(float64(ld.b.s6a - ld.a.s6a))
	m["s11.calls_per_proc"] = ld.perProc(float64(ld.b.s11 - ld.a.s11))

	if m["s6a.rtt_us"], m["s11.rtt_us"], err = b.rtts(); err != nil {
		return nil, err
	}
	m["s6a.handle_us_per_call"] = ratio(float64(b.st.s6a.ns.Load())/1e3, float64(b.st.s6a.calls.Load()))
	m["s11.handle_us_per_call"] = ratio(float64(b.st.s11.ns.Load())/1e3, float64(b.st.s11.calls.Load()))

	masters := b.masterClones()
	m["state.contexts"] = float64(b.contexts())
	var size int
	for _, c := range masters {
		size += c.Size()
	}
	m["state.context_bytes"] = ratio(float64(size), float64(len(masters)))
	b.tearDown()
	m["state.get_ns"], m["state.apply_replica_ns"] = storeReplay(masters, cfg.seed)

	var up, all [][]byte
	for _, c := range caps {
		up = append(up, c.up...)
		all = append(all, c.up...)
		all = append(all, c.down...)
	}
	m["s1ap.codec_ns_per_msg"], m["s1ap.codec_allocs_per_msg"] = s1apReplay(all)
	m["nas.codec_ns_per_msg"] = nasReplay(all)
	if m["mlb.route_ns_per_msg"], m["mlb.route_allocs_per_msg"], err = routeReplay(up); err != nil {
		return nil, err
	}
	if m["mmp.engine_us_per_proc"], m["mmp.engine_allocs_per_proc"], err = engineDirect(cfg); err != nil {
		return nil, err
	}
	ov, err := obsOverhead(cfg, m)
	if err != nil {
		return nil, err
	}

	// Serial attribution: the layers timed or replayed above against
	// the mean eNB-observed latency. The generator's figure excludes its
	// link writes, and the engine's excludes the replication pushes it
	// writes inside its handler (priced at the agent links' mean write),
	// so that no write is counted twice. Each S1AP message is decoded and
	// re-encoded at the MLB, and decoded (uplink) or encoded (downlink)
	// at the agent outside the engine's busy time.
	var mean time.Duration
	for _, d := range lat {
		mean += d
	}
	if len(lat) > 0 {
		mean /= time.Duration(len(lat))
	}
	ex := exchangeOf[cfg.w.kind]
	serBusy, _ := ser.busyNS()
	enbW := float64(ser.b.enbW[1] - ser.a.enbW[1])
	agentW := float64(ser.b.agentW[1] - ser.a.agentW[1])
	agentWrite := ratio(agentW, float64(ser.b.agentW[0]-ser.a.agentW[0]))
	pushes := float64(ser.b.replicate - ser.a.replicate)
	parts := []struct {
		name string
		us   float64
	}{
		{"enb generator", ser.perProc((float64(ser.b.genNS-ser.a.genNS) - enbW) / 1e3)},
		{"mmp engine (incl. S6a/S11 waits)", ser.perProc((float64(serBusy) - pushes*agentWrite) / 1e3)},
		{"link writes (eNB, agent)", ser.perProc((enbW + agentW) / 1e3)},
		{"mlb route", m["mlb.route_ns_per_msg"] * float64(ex.up) / 1e3},
		{"s1ap codec (MLB, agent)", m["s1ap.codec_ns_per_msg"] * 1.5 * float64(ex.up+ex.down) / 1e3},
	}
	var attributed float64
	for _, p := range parts {
		attributed += p.us
	}
	m["wait.serial_mean_us"] = us(mean)
	m["wait.unattributed_us"] = us(mean) - attributed
	m["wait.attributed_share"] = ratio(attributed, us(mean))

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s seed=%d traced: serial mean %.1fus over %d procs; loaded %d procs in %.2fs\n",
		cfg.w.name, cfg.seed, us(mean), len(lat), lstats.procs, lstats.wall.Seconds())
	fmt.Fprintln(tw, "serial attribution\tus/proc\tshare")
	for _, p := range parts {
		fmt.Fprintf(tw, "  %s\t%.1f\t%.1f%%\n", p.name, p.us, 100*ratio(p.us, us(mean)))
	}
	fmt.Fprintf(tw, "  attributed\t%.1f\t%.1f%%\n", attributed, 100*m["wait.attributed_share"])
	fmt.Fprintf(tw, "  unattributed (loopback hops, wake-ups, agent queue)\t%.1f\t\n", m["wait.unattributed_us"])
	fmt.Fprintln(tw, "tracing overhead\tcpu us/proc\tallocs/proc")
	fmt.Fprintf(tw, "  untimed, obs off (%d devices)\t%.1f\t%.1f\n", ov.pop, ov.off.cpu, ov.off.allocs)
	fmt.Fprintf(tw, "  untimed, obs on\t%.1f\t%.1f\n", ov.on.cpu, ov.on.allocs)
	fmt.Fprintf(tw, "  this run's timed stack\t%.1f\t%.1f\n",
		float64(lstats.cpu.Microseconds())/float64(lstats.procs), float64(lstats.mallocs)/float64(lstats.procs))
	fmt.Fprintln(tw, "layer metric\tvalue\tunit")
	for _, lm := range layerMetrics {
		fmt.Fprintf(tw, "  %s\t%.4g\t%s\n", lm.name, m[lm.name], lm.unit)
	}
	tw.Flush()

	res.Metrics = map[string]metric{}
	for _, lm := range layerMetrics {
		v, ok := m[lm.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not measured", lm.name)
		}
		res.Metrics[lm.name] = metric{v, lm.unit}
	}
	return &res.result, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rtts is the median round trip of the benchmark's own S6a and S11
// calls on the idle stack: AuthInfo for the probe subscriber, and a
// ReleaseAccessBearers for a TEID the S-GW never allocated.
func (b *bench) rtts() (s6aUS, s11US float64, err error) {
	const n = 200
	hc, err := hss.DialClient(b.st.hssAdr)
	if err != nil {
		return 0, 0, err
	}
	defer hc.Close()
	sc, err := sgw.DialClient(b.st.sgwAdr)
	if err != nil {
		return 0, 0, err
	}
	defer sc.Close()
	var h, s []time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := hc.AuthInfo(probeIMSI, plmn.String(), 1); err != nil {
			return 0, 0, fmt.Errorf("probe AuthInfo: %w", err)
		}
		h = append(h, time.Since(t0))
		t0 = time.Now()
		if _, err := sc.ReleaseAccessBearers(0); err != nil {
			return 0, 0, fmt.Errorf("probe ReleaseAccessBearers: %w", err)
		}
		s = append(s, time.Since(t0))
	}
	return us(quantile(h, 0.5)), us(quantile(s, 0.5)), nil
}

// masterClones copies every master context the agents hold.
func (b *bench) masterClones() []*state.UEContext {
	var out []*state.UEContext
	for _, a := range b.st.agents {
		a.Engine.Store().Range(func(ctx *state.UEContext, replica bool) bool {
			if !replica {
				out = append(out, ctx.Clone())
			}
			return true
		})
	}
	return out
}

// storeReplay times state.Store lookups and replica applies over the
// run's standing contexts in a fresh store, in a seeded order.
func storeReplay(ctxs []*state.UEContext, seed int64) (getNS, applyNS float64) {
	if len(ctxs) == 0 {
		return 0, 0
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(ctxs))
	st := state.NewStore()
	for _, c := range ctxs {
		st.PutMaster(c)
	}
	const passes = 5
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for _, i := range order {
			st.Get(ctxs[i].GUTI)
		}
	}
	getNS = float64(time.Since(t0).Nanoseconds()) / float64(passes*len(ctxs))

	rep := state.NewStore()
	for _, c := range ctxs {
		if err := rep.ApplyReplica(c.Clone()); err != nil {
			return getNS, 0
		}
	}
	var elapsed time.Duration
	for p := 0; p < passes; p++ {
		next := make([]*state.UEContext, len(ctxs))
		for j, i := range order {
			c := ctxs[i].Clone()
			c.Version += uint64(p + 1)
			next[j] = c
		}
		t0 := time.Now()
		for _, c := range next {
			_ = rep.ApplyReplica(c)
		}
		elapsed += time.Since(t0)
	}
	return getNS, float64(elapsed.Nanoseconds()) / float64(passes*len(ctxs))
}

// replayCount is how many message visits a codec or routing replay
// makes, spread over the captured messages.
const replayCount = 200000

func reps(n int) int {
	if n == 0 {
		return 0
	}
	return (replayCount + n - 1) / n
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// s1apReplay decodes and re-encodes each captured message, as the MLB
// does for every message it relays.
func s1apReplay(msgs [][]byte) (nsPerMsg, allocsPerMsg float64) {
	r := reps(len(msgs))
	if r == 0 {
		return 0, 0
	}
	runtime.GC()
	a0, t0 := mallocs(), time.Now()
	for i := 0; i < r; i++ {
		for _, b := range msgs {
			m, err := s1ap.Unmarshal(b)
			if err != nil {
				continue
			}
			w := wire.GetWriter()
			s1ap.MarshalTo(w, m)
			wire.PutWriter(w)
		}
	}
	n := float64(r * len(msgs))
	return float64(time.Since(t0).Nanoseconds()) / n, float64(mallocs()-a0) / n
}

// nasPDU returns the NAS payload an S1AP message carries, if any.
func nasPDU(m s1ap.Message) []byte {
	switch m := m.(type) {
	case *s1ap.InitialUEMessage:
		return m.NASPDU
	case *s1ap.UplinkNASTransport:
		return m.NASPDU
	case *s1ap.DownlinkNASTransport:
		return m.NASPDU
	}
	return nil
}

// nasSink keeps the NAS replay's encodes observable.
var nasSink []byte

// nasReplay decodes and re-encodes each captured NAS payload.
func nasReplay(msgs [][]byte) float64 {
	var pdus [][]byte
	for _, b := range msgs {
		if m, err := s1ap.Unmarshal(b); err == nil {
			if p := nasPDU(m); p != nil {
				pdus = append(pdus, p)
			}
		}
	}
	r := reps(len(pdus))
	if r == 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < r; i++ {
		for _, p := range pdus {
			if m, err := nas.Unmarshal(p); err == nil {
				nasSink = nas.Marshal(m)
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(r*len(pdus))
}

// routeReplay routes the captured uplinks with a router whose ring has
// the run's members.
func routeReplay(up [][]byte) (nsPerMsg, allocsPerMsg float64, err error) {
	var msgs []s1ap.Message
	for _, b := range up {
		if m, err := s1ap.Unmarshal(b); err == nil {
			msgs = append(msgs, m)
		}
	}
	r := reps(len(msgs))
	if r == 0 {
		return 0, 0, nil
	}
	rt := mlb.NewRouter(mlb.Config{Name: "scale-mlb", PLMN: plmn, MMEGI: mmegi, MMEC: mmec, Tokens: 5})
	for i := 1; i <= numMMPs; i++ {
		rt.RegisterMMP(fmt.Sprintf("mmp-%d", i), uint8(i))
	}
	runtime.GC()
	a0, t0 := mallocs(), time.Now()
	for i := 0; i < r; i++ {
		for _, m := range msgs {
			if _, err := rt.Route(m); err != nil {
				return 0, 0, fmt.Errorf("route replay: %w", err)
			}
		}
	}
	n := float64(r * len(msgs))
	return float64(time.Since(t0).Nanoseconds()) / n, float64(mallocs()-a0) / n, nil
}

// obsShare sizes each comparison stack's loaded phase, as a share of
// the run's measured seconds.
const obsShare = 0.15

// overhead compares the same workload on two untimed stacks of a
// reduced population, without and with an obs.Observer.
type overhead struct {
	pop     int
	off, on struct{ cpu, allocs float64 }
}

// obsOverhead fills the obs.* metrics: the stage histograms of the
// observed stack (set-up included) and the per-procedure CPU and
// allocation difference between the two stacks.
func obsOverhead(cfg runConfig, m map[string]float64) (overhead, error) {
	c := cfg
	c.w.population = 2000
	loaded := time.Duration(float64(cfg.seconds) * obsShare)
	c.seconds = 2 * loaded // sizes the fresh-IMSI pool
	ov := overhead{pop: c.population()}
	for _, observed := range []bool{false, true} {
		b, _, err := setUp(c, stackConfig{observed: observed})
		if err != nil {
			return ov, err
		}
		ls, err := b.loadedPhase(loaded, nil)
		if err == nil {
			if p := b.settleAndCheck(); len(p) > 0 {
				err = fmt.Errorf("obs comparison stack: %s", strings.Join(p, "; "))
			}
		}
		if err != nil {
			b.tearDown()
			return ov, err
		}
		x := &ov.off
		if observed {
			x = &ov.on
			stages := map[string][2]float64{} // stage → count, sum (s)
			for _, o := range b.st.obs {
				o.Reg.ForEachHistogram(func(id string, h *obs.Histogram) {
					i := strings.Index(id, `stage="`)
					if i < 0 {
						return
					}
					stage := strings.TrimSuffix(id[i+len(`stage="`):], `"}`)
					s := h.Stats()
					v := stages[stage]
					stages[stage] = [2]float64{v[0] + float64(s.Count), v[1] + float64(s.Count)*s.Mean}
				})
			}
			for _, st := range []string{"mlb-route", "mmp", "s6a", "s11", "replicate"} {
				v := stages[st]
				m["obs."+st+"_us"] = ratio(v[1], v[0]) * 1e6
			}
		}
		x.cpu = ls.cpuPerProc
		x.allocs = float64(ls.mallocs) / float64(ls.procs)
		b.tearDown()
	}
	m["obs.extra_cpu_us_per_proc"] = ov.on.cpu - ov.off.cpu
	m["obs.extra_allocs_per_proc"] = ov.on.allocs - ov.off.allocs
	return ov, nil
}

package main

import (
	"fmt"
	"time"

	"scale/internal/enb"
	"scale/internal/mmp"
	"scale/internal/state"
	"scale/internal/transport"
)

// Output checks. Each compares the program's state with a figure the
// generator computed on its own side, or with a property the method
// must have; none compares against stored output.

// settleAndCheck waits for the stack to go quiet (replica pushes and
// the last releases and detaches land after the eNB saw completion),
// then checks. A failing check is retried after a further settle until
// 10 s have passed.
func (b *bench) settleAndCheck() []string {
	deadline := time.Now().Add(10 * time.Second)
	for {
		b.quiesce(deadline)
		problems := b.check()
		if len(problems) == 0 || time.Now().After(deadline) {
			return problems
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// quiesce returns once no frame has moved for three consecutive polls.
func (b *bench) quiesce(deadline time.Time) {
	last, calm := transport.Stats().FramesIn, 0
	for calm < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		cur := transport.Stats().FramesIn
		if cur == last {
			calm++
		} else {
			calm = 0
		}
		last = cur
	}
}

func (b *bench) check() []string {
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// eNB-counted completions equal the engines' counters.
	var es mmp.Stats
	for _, a := range b.st.agents {
		s := a.Engine.Stats()
		es.Attaches += s.Attaches
		es.ServiceRequests += s.ServiceRequests
		es.TAUs += s.TAUs
		es.Detaches += s.Detaches
		es.AuthFailures += s.AuthFailures
	}
	var ns enb.Stats
	for _, l := range b.links {
		l.mu.Lock()
		s := l.emu.Stats()
		l.mu.Unlock()
		ns.Attaches += s.Attaches
		ns.ServiceRequests += s.ServiceRequests
		ns.TAUs += s.TAUs
		ns.Detaches += s.Detaches
	}
	for _, c := range []struct {
		name     string
		eNB, mme uint64
	}{
		{"attaches", ns.Attaches, es.Attaches},
		{"service requests", ns.ServiceRequests, es.ServiceRequests},
		{"TAUs", ns.TAUs, es.TAUs},
		{"detaches", ns.Detaches, es.Detaches},
	} {
		if c.eNB != c.mme {
			fail("%s: eNB completed %d, engines counted %d", c.name, c.eNB, c.mme)
		}
	}
	// Every UE-derived RES was accepted.
	if es.AuthFailures != 0 {
		fail("%d authentication failures", es.AuthFailures)
	}
	if n := b.tally.foreignGUTI.Load(); n != 0 {
		fail("%d accepted GUTIs lack the MLB's PLMN/MMEGI/MMEC", n)
	}
	if n := b.tally.mismatched.Load(); n != 0 {
		fail("%d procedures deviated from their S1AP exchange", n)
	}

	// The standing population: R=2 holders, S-GW idleness matching the
	// eNB, and (tau) replicas carrying the TAI the device last sent.
	stores := make([]*state.Store, len(b.st.agents))
	for i, a := range b.st.agents {
		stores[i] = a.Engine.Store()
	}
	var badHolders, badIdle, badTAI, badGUTI int
	for li, devs := range b.byLink {
		l := b.links[li]
		l.mu.Lock()
		for _, d := range devs {
			h := b.holders(stores, d)
			switch {
			case !h.ok:
				badHolders++
				continue
			case !h.gutiOK:
				badGUTI++
			}
			if sess, ok := b.st.gw.Session(h.master.SGWTEID); !ok || sess.IMSI != d.imsi || sess.Idle() != (d.ue.State == enb.Idle) {
				badIdle++
			}
			if b.cfg.w.kind == procTAU && d.tai != 0 && (h.master.TAI != d.tai || h.replica.TAI != d.tai) {
				badTAI++
			}
		}
		l.mu.Unlock()
	}
	if badGUTI > 0 {
		fail("%d standing devices hold a GUTI without the MLB's PLMN/MMEGI/MMEC", badGUTI)
	}
	if badHolders > 0 {
		fail("%d standing devices not held by exactly one master and one replica", badHolders)
	}
	if badIdle > 0 {
		fail("%d standing devices whose S-GW session idleness differs from the eNB's state", badIdle)
	}
	if badTAI > 0 {
		fail("%d devices whose master or replica TAI differs from the last TAU's", badTAI)
	}

	// attach-detach returns the S-GW and the engines to the standing
	// population.
	if b.cfg.w.kind == procAttachDetach {
		masters := 0
		for _, s := range stores {
			masters += s.MasterCount()
		}
		if n := b.st.gw.Len(); n != len(b.pop) {
			fail("S-GW holds %d sessions, standing population is %d", n, len(b.pop))
		}
		if masters != len(b.pop) {
			fail("engines master %d devices, standing population is %d", masters, len(b.pop))
		}
	}
	return problems
}

// holding is where a standing device's state lives.
type holding struct {
	ok              bool // exactly one master and one replica
	gutiOK          bool // the GUTI carries the MLB's PLMN/MMEGI/MMEC
	master, replica *state.UEContext
}

func (b *bench) holders(stores []*state.Store, d *device) holding {
	g := d.ue.GUTI
	h := holding{gutiOK: g.PLMN == plmn && g.MMEGI == mmegi && g.MMEC == mmec}
	masters, replicas := 0, 0
	for _, s := range stores {
		ctx, ok := s.Get(g)
		if !ok {
			continue
		}
		if s.IsReplica(g) {
			replicas++
			h.replica = ctx
		} else {
			masters++
			h.master = ctx
		}
	}
	h.ok = masters == 1 && replicas == 1
	return h
}

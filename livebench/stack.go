package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"sync/atomic"
	"time"

	"scale/internal/core"
	"scale/internal/guti"
	"scale/internal/hss"
	"scale/internal/mlb"
	"scale/internal/obs"
	"scale/internal/s11"
	"scale/internal/s6"
	"scale/internal/sgw"
	"scale/internal/transport"
)

// The deployment keeps every default: scale-mlb's 5 ring tokens with
// overload control on, and MMP agents with core.MMPAgentConfig's zero
// values for admission, queue, heartbeat and load reports (off: with
// scale-mmp's 2 s reports, a report that flips the least-loaded pick
// between a device's attach and its detach strands the detach — see
// README.md). Everything listens on 127.0.0.1 ephemeral ports.

const (
	numMMPs = 2
	mmegi   = 0x0101
	mmec    = 1
)

var plmn = guti.PLMN{MCC: 310, MNC: 26}

// stack is one deployed set of nodes.
type stack struct {
	db     *hss.DB
	gw     *sgw.GW
	closeS []func() error // HSS and S-GW servers
	hssAdr string
	sgwAdr string
	mlb    *core.MLBServer
	agents []*core.MMPAgent
	// obs holds the MLB's observer first, then the agents', when the
	// stack is observed.
	obs []*obs.Observer
	// s6a and s11 time the HSS and S-GW handlers (trace runs only).
	s6a, s11 *callTimes
	// enbWrites and agentWrites time the eNB-side and agent-side link
	// writes (trace runs only).
	enbWrites, agentWrites *callTimes
}

// callTimes accumulates calls and the time spent in them.
type callTimes struct {
	calls atomic.Uint64
	ns    atomic.Int64
}

func (c *callTimes) add(since time.Time) {
	c.ns.Add(int64(time.Since(since)))
	c.calls.Add(1)
}

// timedConn times every Write on a TCP connection. Wrapping hides the
// connection's writev support, so net.Buffers falls back to one Write
// per frame on the wrapped links: trace runs measure a per-frame write
// cost, not the batched one.
type timedConn struct {
	net.Conn
	t *callTimes
}

func (c timedConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	c.t.add(t0)
	return n, err
}

// stackConfig selects how a stack is built.
type stackConfig struct {
	observed bool // MLB and agents carry an obs.Observer
	timed    bool // time HSS/S-GW handlers and link writes
	// subscribers are provisioned in the HSS before anything attaches.
	subscribers []uint64
}

func logger(name string) *log.Logger {
	return log.New(os.Stderr, name+" ", log.Lmicroseconds)
}

// deploy starts HSS, S-GW, MLB and the MMP agents and waits until every
// agent is on the ring.
func deploy(cfg stackConfig) (*stack, error) {
	st := &stack{db: hss.NewDB(), gw: sgw.New()}
	for _, imsi := range cfg.subscribers {
		st.db.Provision(hss.Subscriber{IMSI: imsi, K: hss.KeyForIMSI(imsi), Profile: hss.DefaultProfile})
	}
	if err := st.serveEPC(cfg.timed); err != nil {
		st.close()
		return nil, err
	}
	var mlbObs *obs.Observer
	if cfg.observed {
		mlbObs = obs.NewObserver("scale-mlb", spanLogSize)
		core.RegisterTransportMetrics(mlbObs.Reg)
		st.obs = append(st.obs, mlbObs)
	}
	srv, err := core.ServeMLBConfig(core.MLBServerConfig{
		Router: mlb.Config{
			Name: "scale-mlb", PLMN: plmn, MMEGI: mmegi, MMEC: mmec,
			Tokens: 5, Obs: mlbObs,
		},
		ENBAddr: "127.0.0.1:0",
		MMPAddr: "127.0.0.1:0",
		Logger:  logger("mlb"),
	})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("MLB: %w", err)
	}
	st.mlb = srv
	if cfg.timed {
		st.enbWrites, st.agentWrites = &callTimes{}, &callTimes{}
	}
	for i := 1; i <= numMMPs; i++ {
		id := fmt.Sprintf("mmp-%d", i)
		var ob *obs.Observer
		if cfg.observed {
			ob = obs.NewObserver(id, spanLogSize)
			core.RegisterTransportMetrics(ob.Reg)
			st.obs = append(st.obs, ob)
		}
		acfg := core.MMPAgentConfig{
			ID: id, Index: uint8(i),
			PLMN: plmn, MMEGI: mmegi, MMEC: mmec,
			MLBAddr: srv.MMPAddr(), HSSAddr: st.hssAdr, SGWAddr: st.sgwAdr,
			Logger: logger(id),
			Obs:    ob,
		}
		if cfg.timed {
			addr, w := srv.MMPAddr(), st.agentWrites
			acfg.MLBDial = func() (*transport.Conn, error) {
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return transport.NewConn(timedConn{nc, w}), nil
			}
		}
		a, err := core.StartMMPAgent(acfg)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("MMP %s: %w", id, err)
		}
		st.agents = append(st.agents, a)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.Router.MMPs()) < numMMPs {
		if time.Now().After(deadline) {
			st.close()
			return nil, errors.New("agents did not register with the MLB")
		}
		time.Sleep(time.Millisecond)
	}
	return st, nil
}

// spanLogSize is the daemons' -span-log default.
const spanLogSize = 4096

// serveEPC starts the HSS and S-GW RPC servers. Untimed stacks run the
// packages' own servers; timed ones serve the same handlers through
// transport.ServeRPC with the time inside Handle recorded.
func (st *stack) serveEPC(timed bool) error {
	if !timed {
		hs, err := hss.Serve("127.0.0.1:0", st.db)
		if err != nil {
			return fmt.Errorf("HSS: %w", err)
		}
		st.closeS = append(st.closeS, hs.Close)
		gs, err := sgw.Serve("127.0.0.1:0", st.gw)
		if err != nil {
			return fmt.Errorf("S-GW: %w", err)
		}
		st.closeS = append(st.closeS, gs.Close)
		st.hssAdr, st.sgwAdr = hs.Addr(), gs.Addr()
		return nil
	}
	st.s6a, st.s11 = &callTimes{}, &callTimes{}
	hs, err := transport.ServeRPC("127.0.0.1:0", func(payload []byte) []byte {
		req, err := s6.Unmarshal(payload)
		if err != nil {
			return s6.Marshal(&s6.PurgeAnswer{Result: s6.ResultUserUnknown})
		}
		t0 := time.Now()
		ans := st.db.Handle(req)
		st.s6a.add(t0)
		return s6.Marshal(ans)
	})
	if err != nil {
		return fmt.Errorf("HSS: %w", err)
	}
	st.closeS = append(st.closeS, hs.Close)
	gs, err := transport.ServeRPC("127.0.0.1:0", func(payload []byte) []byte {
		req, err := s11.Unmarshal(payload)
		if err != nil {
			return s11.Marshal(&s11.DeleteSessionResponse{Cause: s11.CauseContextNotFound})
		}
		t0 := time.Now()
		resp := st.gw.Handle(req)
		st.s11.add(t0)
		return s11.Marshal(resp)
	})
	if err != nil {
		return fmt.Errorf("S-GW: %w", err)
	}
	st.closeS = append(st.closeS, gs.Close)
	st.hssAdr, st.sgwAdr = hs.Addr(), gs.Addr()
	return nil
}

// wrapENB returns the eNB-side connection wrapper: timed on timed
// stacks, none otherwise.
func (st *stack) wrapENB() func(net.Conn) net.Conn {
	if st.enbWrites == nil {
		return nil
	}
	return func(nc net.Conn) net.Conn { return timedConn{nc, st.enbWrites} }
}

// close tears the stack down: the MLB first (closing an agent while the
// MLB serves would fail it over and promote its devices on the other),
// then the agents, then the EPC.
func (st *stack) close() {
	if st.mlb != nil {
		st.mlb.Close()
	}
	for _, a := range st.agents {
		a.Close()
	}
	for _, c := range st.closeS {
		c()
	}
}

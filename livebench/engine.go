package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"scale/internal/enb"
	"scale/internal/hss"
	"scale/internal/mmp"
	"scale/internal/obs"
	"scale/internal/s11"
	"scale/internal/s1ap"
	"scale/internal/s6"
	"scale/internal/sgw"
	"scale/internal/state"
	"scale/internal/wire"
)

// The transport-free engine measurement: an mmp.Engine driven directly
// by an enb.Emulator, with the HSS and S-GW reached through in-process
// adapters over hss.DB.Handle and sgw.GW.Handle. A first pass records
// the uplinks the emulator produces; a second pass replays them into a
// fresh engine, HSS and S-GW built the same way, so the timed figures
// hold the engine (and the adapters' HSS/S-GW work) but not the
// emulator. Every identifier the engine and its peers allocate is
// sequential, so the replay meets the same state the recording did.

// directPopulation and directCycles size the measurement per procedure
// kind: enough cycles for a stable mean, a population that keeps it
// under a second.
const directPopulation = 1000

var directCycles = [...]int{
	procAttachDetach:   1500,
	procServiceRelease: 4000,
	procTAU:            20000,
}

type hssAdapter struct{ db *hss.DB }

func (h hssAdapter) AuthInfo(imsi uint64, sn string, n uint8) (*s6.AuthInfoAnswer, error) {
	if a, ok := h.db.Handle(&s6.AuthInfoRequest{IMSI: imsi, ServingNetwork: sn, NumVectors: n}).(*s6.AuthInfoAnswer); ok {
		return a, nil
	}
	return nil, errors.New("hss: unexpected answer")
}

func (h hssAdapter) UpdateLocation(imsi uint64, mmeID string) (*s6.UpdateLocationAnswer, error) {
	if a, ok := h.db.Handle(&s6.UpdateLocationRequest{IMSI: imsi, MMEID: mmeID}).(*s6.UpdateLocationAnswer); ok {
		return a, nil
	}
	return nil, errors.New("hss: unexpected answer")
}

func (h hssAdapter) Purge(imsi uint64) error {
	h.db.Handle(&s6.PurgeRequest{IMSI: imsi})
	return nil
}

type sgwAdapter struct{ gw *sgw.GW }

func (g sgwAdapter) CreateSession(imsi uint64, teid uint32, apn string, ebi uint8) (*s11.CreateSessionResponse, error) {
	if r, ok := g.gw.Handle(&s11.CreateSessionRequest{IMSI: imsi, MMETEID: teid, APN: apn, BearerID: ebi}).(*s11.CreateSessionResponse); ok {
		return r, nil
	}
	return nil, errors.New("sgw: unexpected response")
}

func (g sgwAdapter) ModifyBearer(sgwTEID, enbTEID uint32, addr string, ebi uint8) (*s11.ModifyBearerResponse, error) {
	if r, ok := g.gw.Handle(&s11.ModifyBearerRequest{SGWTEID: sgwTEID, ENBTEID: enbTEID, ENBAddr: addr, BearerID: ebi}).(*s11.ModifyBearerResponse); ok {
		return r, nil
	}
	return nil, errors.New("sgw: unexpected response")
}

func (g sgwAdapter) ReleaseAccessBearers(sgwTEID uint32) (*s11.ReleaseAccessBearersResponse, error) {
	if r, ok := g.gw.Handle(&s11.ReleaseAccessBearersRequest{SGWTEID: sgwTEID}).(*s11.ReleaseAccessBearersResponse); ok {
		return r, nil
	}
	return nil, errors.New("sgw: unexpected response")
}

func (g sgwAdapter) DeleteSession(sgwTEID uint32, ebi uint8) (*s11.DeleteSessionResponse, error) {
	if r, ok := g.gw.Handle(&s11.DeleteSessionRequest{SGWTEID: sgwTEID, BearerID: ebi}).(*s11.DeleteSessionResponse); ok {
		return r, nil
	}
	return nil, errors.New("sgw: unexpected response")
}

// encodeReplicator encodes each snapshot as the agent does before its
// replicate-stream write, and drops it.
type encodeReplicator struct{}

func (encodeReplicator) Replicate(_ string, ctx *state.UEContext) {
	w := wire.GetWriter()
	ctx.MarshalTo(w)
	wire.PutWriter(w)
}

// uplink is one recorded emulator uplink.
type uplink struct {
	cell uint32
	msg  s1ap.Message
}

func newDirectEngine(imsis []uint64, observed bool) *mmp.Engine {
	db := hss.NewDB()
	for _, imsi := range imsis {
		db.Provision(hss.Subscriber{IMSI: imsi, K: hss.KeyForIMSI(imsi), Profile: hss.DefaultProfile})
	}
	var ob *obs.Observer
	if observed {
		ob = obs.NewObserver("mmp-1", spanLogSize)
	}
	return mmp.New(mmp.Config{
		ID: "mmp-1", Index: 1,
		PLMN: plmn, MMEGI: mmegi, MMEC: mmec, ServingNetwork: plmn.String(),
		HSS: hssAdapter{db}, SGW: sgwAdapter{sgw.New()},
		Replicator: encodeReplicator{},
		Obs:        ob,
	})
}

// engineDirect returns the engine's time and allocations per procedure
// of the workload's cycle.
func engineDirect(cfg runConfig) (usPerProc, allocsPerProc float64, err error) {
	kind := cfg.w.kind
	pop, cycles := directPopulation, directCycles[kind]
	if cfg.popDiv > 1 {
		pop, cycles = pop/cfg.popDiv, cycles/cfg.popDiv
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var imsis []uint64
	for _, i := range rng.Perm(pop) {
		imsis = append(imsis, popBase+uint64(i))
	}
	var fresh []uint64
	if kind == procAttachDetach {
		for _, i := range rng.Perm(cycles) {
			fresh = append(fresh, freshBase+uint64(i))
		}
	}
	all := append(append([]uint64(nil), imsis...), fresh...)

	// Pass 1: the emulator against a live engine, recording uplinks.
	eng := newDirectEngine(all, cfg.w.observed)
	emu := enb.New()
	emu.Seed(uint64(cfg.seed))
	cells := []uint32{1, 2, 3, 4}
	for _, c := range cells {
		emu.AddCell(c, []uint16{uint16(100 + c)})
	}
	var rec []uplink
	var herr error
	emu.Uplink = func(cell uint32, msg s1ap.Message) {
		rec = append(rec, uplink{cell, msg})
		out, err := eng.Handle(cell, msg)
		if err != nil && herr == nil {
			herr = err
		}
		for _, o := range out {
			emu.HandleDownlink(cell, o.Msg)
		}
	}
	cell := func() uint32 { return cells[rng.Intn(len(cells))] }
	for _, imsi := range imsis {
		if err := emu.Attach(imsi, cell()); err != nil {
			return 0, 0, fmt.Errorf("engine pass: attach: %w", err)
		}
		if err := emu.ReleaseToIdle(imsi); err != nil {
			return 0, 0, fmt.Errorf("engine pass: release: %w", err)
		}
	}
	setup := len(rec)
	for i := 0; i < cycles; i++ {
		imsi := imsis[i%len(imsis)]
		switch kind {
		case procAttachDetach:
			imsi = fresh[i]
			err = emu.Attach(imsi, cell())
			if err == nil {
				err = emu.Detach(imsi, true)
			}
		case procServiceRelease:
			err = emu.ServiceRequest(imsi, cell())
			if err == nil {
				err = emu.ReleaseToIdle(imsi)
			}
		case procTAU:
			err = emu.TAU(imsi, cell())
		}
		if err != nil {
			return 0, 0, fmt.Errorf("engine pass: cycle %d: %w", i, err)
		}
	}
	if herr != nil {
		return 0, 0, fmt.Errorf("engine pass: %w", herr)
	}

	// Pass 2: replay into a fresh engine; time the cycles only.
	eng = newDirectEngine(all, cfg.w.observed)
	for _, u := range rec[:setup] {
		if _, err := eng.Handle(u.cell, u.msg); err != nil {
			return 0, 0, fmt.Errorf("engine replay: set-up: %w", err)
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, u := range rec[setup:] {
		if _, err := eng.Handle(u.cell, u.msg); err != nil {
			return 0, 0, fmt.Errorf("engine replay: %w", err)
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := float64(cycles)
	return us(elapsed) / n, float64(m1.Mallocs-m0.Mallocs) / n, nil
}

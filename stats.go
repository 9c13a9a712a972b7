package qithread

import (
	"qithread/internal/core"
	"qithread/internal/ingress"
)

// This file is the runtime's observability surface: plain snapshot structs a
// server (or a tool like cmd/qistat) reads without touching traces or logs.
// A domain's scheduler belongs to that domain's goroutine while it runs, so
// its counters are read after Run returns or from a thread of the domain.

// SchedulerStat is one scheduler domain's activity snapshot: the domain's
// identity plus every counter of its scheduler (st.Turns, st.Ops,
// st.LeaseExtends, st.MaxWaiting, ...; the fields are declared and
// documented once, on internal/core.Counters) and its policy stack's
// decision counters (st.PolicyMetrics, whose zero entries after the base
// policy a listing skips; see core.Snapshot).
type SchedulerStat struct {
	// Domain and Name identify the domain (0 is the default domain).
	Domain int
	Name   string
	core.Snapshot
}

// SchedulerStats snapshots every scheduler domain's counters in domain-id
// order. Nil in Nondet mode (which has no deterministic schedulers). Call it
// after Run returns: while a domain runs, only its own threads may read it.
func (rt *Runtime) SchedulerStats() []SchedulerStat {
	if !rt.det() {
		return nil
	}
	doms := registered(rt, &rt.domains)
	out := make([]SchedulerStat, 0, len(doms))
	for _, d := range doms {
		out = append(out, SchedulerStat{Domain: d.id, Name: d.name, Snapshot: d.sched.Stats()})
	}
	return out
}

// GatewayStat is one ingress gateway's admission snapshot.
type GatewayStat struct {
	// Name and Domain identify the gateway and the domain that admits
	// through it.
	Name   string
	Domain int
	// Epoch is the number of admission slots taken so far.
	Epoch int64
	// Stats is every admission counter (st.Collected, st.Admitted, st.Shed,
	// st.PushBlocks, st.MaxStage, st.MaxQueue, ...; declared and documented
	// once, on internal/ingress.Stats).
	ingress.Stats
}

// GatewayStats snapshots every ingress gateway's admission counters in
// creation order. Empty when the program created no gateways.
func (rt *Runtime) GatewayStats() []GatewayStat {
	gws := registered(rt, &rt.gateways)
	out := make([]GatewayStat, 0, len(gws))
	for _, gw := range gws {
		out = append(out, GatewayStat{Name: gw.name, Domain: gw.dom.id, Epoch: gw.Epoch(), Stats: gw.IngressStats()})
	}
	return out
}

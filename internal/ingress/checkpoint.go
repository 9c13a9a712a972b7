package ingress

import "fmt"

// GatewayState is the checkpointable deterministic state of a Gateway: the
// admission counters, the admitted-but-undelivered queue, the running
// admit/shed hash commitments and the counters (the embedded Stats). The
// collector-side staging counters (Stats.PushBlocks, Stats.MaxStage) are
// real-time diagnostics, not schedule inputs: the collector counts them, the
// gateway's own block never holds them, so a checkpoint carries them as zero.
//
// A capture is legal between admission slots (the capturing thread holds its
// domain's turn, so no Admit is concurrent); a restore targets a freshly
// created gateway before its first admission slot. Restoring a replay-mode
// gateway also advances its Replayer past every batch recorded at or before
// the checkpoint epoch, so the resumed run's next Admit sees exactly the
// batch the recorded run collected next.
type GatewayState struct {
	Epoch int64
	Seq   int64
	Queue []Event // admitted but undelivered, oldest first (full stamps)

	AdmitHash uint64
	ShedHash  uint64

	Stats
}

// CaptureState snapshots the gateway's deterministic state. The caller must
// hold its domain's turn (as for Admit), so the snapshot sits between two
// admission slots.
func (g *Gateway) CaptureState() *GatewayState {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := &GatewayState{
		Epoch:     g.epoch,
		Seq:       g.seq,
		AdmitHash: g.admitHash,
		ShedHash:  g.shedHash,
		Stats:     g.stats,
	}
	st.Queue = make([]Event, g.queued())
	copy(st.Queue, g.queue[g.head:])
	return st
}

// RestoreState reinstates a captured snapshot into a freshly created gateway
// (no admission slot taken yet). The restored queue must fit the gateway's
// configured QueueCap — restoring under a different configuration could
// otherwise never reproduce the recorded shed decisions.
func (g *Gateway) RestoreState(st *GatewayState) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.epoch != 0 || g.seq != 0 || g.queued() != 0 {
		return fmt.Errorf("ingress: RestoreState into a used gateway (epoch %d, seq %d, %d queued)", g.epoch, g.seq, g.queued())
	}
	if len(st.Queue) > g.cfg.QueueCap {
		return fmt.Errorf("ingress: checkpoint queue holds %d events, gateway queue capacity is %d", len(st.Queue), g.cfg.QueueCap)
	}
	g.epoch = st.Epoch
	g.seq = st.Seq
	g.queue = append(g.queue[:0], st.Queue...)
	g.head = 0
	g.admitHash = st.AdmitHash
	g.shedHash = st.ShedHash
	g.stats = st.Stats
	if rep := g.cfg.Replay; rep != nil {
		rep.SkipTo(st.Epoch)
	}
	return nil
}

package domain

import "fmt"

// Checkpoint support. A partitioned execution checkpoints as the sum of its
// parts: each domain's scheduler state (core.SchedState), each domain's
// boundary-operation counter (Domain.Xseq), and each channel's stamp counters
// and running delivery hash. Channels are only checkpointable while their rings
// are EMPTY — a quiescent admission boundary drains in-flight boundary
// traffic first — which keeps the channel record to plain counters: no
// message values (whose types the runtime cannot serialize) ever enter a
// checkpoint.

// ChannelState is the checkpointable state of one cross-domain channel.
type ChannelState struct {
	ID        uint64
	SendSeq   uint64 // messages ever enqueued
	Delivered uint64 // messages ever delivered
	Hash      uint64 // running delivery hash
	Closed    bool
}

// CaptureState snapshots the channel's stamp counters and running hash. It
// fails if messages are in flight: a checkpoint boundary must drain
// cross-domain traffic first (the ring holds arbitrary values the runtime
// cannot serialize).
func (c *Channel) CaptureState() (*ChannelState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n != 0 {
		return nil, fmt.Errorf("domain: channel %q holds %d in-flight messages; drain it before checkpointing", c.name, c.n)
	}
	return &ChannelState{
		ID:        c.id,
		SendSeq:   c.sendSeq,
		Delivered: c.delivered,
		Hash:      c.hash,
		Closed:    c.closed,
	}, nil
}

// RestoreState reinstates a captured snapshot into a freshly created channel
// (no messages sent yet). The channel must occupy the same creation slot as
// the captured one: the id seeds every delivery stamp.
func (c *Channel) RestoreState(st *ChannelState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.id != st.ID {
		return fmt.Errorf("domain: restoring channel id %d state into channel %q (id %d); channels must be re-created in the recorded order", st.ID, c.name, c.id)
	}
	if c.sendSeq != 0 || c.delivered != 0 || c.n != 0 {
		return fmt.Errorf("domain: RestoreState into used channel %q (%d sent, %d delivered, %d queued)", c.name, c.sendSeq, c.delivered, c.n)
	}
	if st.Delivered != st.SendSeq {
		// Capture requires an empty ring, so ever-sent == ever-delivered.
		return fmt.Errorf("domain: corrupt channel state for %q: %d delivered of %d sent", c.name, st.Delivered, st.SendSeq)
	}
	c.sendSeq = st.SendSeq
	c.delivered = st.Delivered
	c.hash = st.Hash
	c.closed = st.Closed
	return nil
}

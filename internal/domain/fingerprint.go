package domain

import (
	"fmt"
	"strings"

	"qithread/internal/logio"
)

// Fingerprint condenses a partitioned execution for determinism checking. It
// replaces the single global schedule hash of the one-domain design: a
// partitioned run has no global total order to hash, but it is fully
// characterized by each domain's schedule plus the cross-domain delivery
// log. Two runs of the same program and configuration must produce equal
// fingerprints.
type Fingerprint struct {
	// DomainHashes holds each domain's schedule hash (trace.Hash) in domain
	// id order.
	DomainHashes []uint64
	// Deliveries hashes the cross-domain delivery history: an FNV-64a stream
	// of (channel id, delivered count, channel delivery hash) per channel in
	// channel-id order, where each channel's delivery hash is the running
	// FNV-64a over its delivery stamps folded at receive time. Per channel
	// the delivery order IS the message-sequence order (FIFO), so this
	// commits to exactly the same information as hashing the canonical
	// merged log — without materializing, copying, or sorting it.
	Deliveries uint64
}

// Equal reports whether two fingerprints describe the same execution.
func (f Fingerprint) Equal(o Fingerprint) bool {
	if f.Deliveries != o.Deliveries || len(f.DomainHashes) != len(o.DomainHashes) {
		return false
	}
	for i, h := range f.DomainHashes {
		if o.DomainHashes[i] != h {
			return false
		}
	}
	return true
}

func (f Fingerprint) String() string {
	var b strings.Builder
	for i, h := range f.DomainHashes {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "d%d:%016x", i, h)
	}
	fmt.Fprintf(&b, " x:%016x", f.Deliveries)
	return b.String()
}

// HashDeliveries hashes a delivery log field by field: the running hash a
// channel maintains incrementally equals HashDeliveries of that channel's
// log. Exported for tests that cross-check the incremental fold against the
// materialized log.
func HashDeliveries(log []Delivery) uint64 {
	h := uint64(logio.FNVOffset64)
	for _, d := range log {
		h = logio.FNVFold64(h, d.ChanID)
		h = logio.FNVFold64(h, d.Seq)
		h = logio.FNVFold64(h, uint64(d.From))
		h = logio.FNVFold64(h, uint64(d.To))
		h = logio.FNVFold64(h, uint64(d.SendTurn))
		h = logio.FNVFold64(h, uint64(d.SendXSeq))
		h = logio.FNVFold64(h, uint64(d.RecvTurn))
		h = logio.FNVFold64(h, uint64(d.RecvXSeq))
	}
	return h
}

// DeliveryHash computes Fingerprint.Deliveries from each channel's running
// delivery hash. Together with each scheduler's incremental trace hash
// (core.TraceHash, value-identical to trace.Hash of the retained trace) it
// makes a fingerprint O(domains + channels) to take, independent of trace
// length and of whether events were retained, streamed to a sink, or
// partially resumed from a checkpoint. Call it after the program has
// finished.
func (g *Group) DeliveryHash() uint64 {
	h := uint64(logio.FNVOffset64)
	for _, c := range g.Channels() {
		ch, nd := c.stamp()
		h = logio.FNVFold64(h, c.id)
		h = logio.FNVFold64(h, nd)
		h = logio.FNVFold64(h, ch)
	}
	return h
}

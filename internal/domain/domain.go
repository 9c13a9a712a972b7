// Package domain partitions a deterministic execution into scheduler
// domains: disjoint groups of threads and synchronization objects, each
// scheduled by its own turn mechanism (internal/core) with its own policy
// stack. The paper's turn serializes every synchronization operation of the
// process through one global order, which is the scalability ceiling of the
// single-scheduler design; determinism, however, only requires a total order
// per interacting group. This package supplies the three pieces the
// partitioned design needs on top of the per-domain schedulers:
//
//   - Partitioning: Domain is the record of one domain. The runtime keeps
//     the list and allocates ids in creation order, so a program that creates
//     its domains deterministically gets the same partition on every run.
//   - Boundary sequencing: cross-domain communication is only legal through
//     a Channel, a sequenced FIFO whose endpoints live in different domains.
//     Every delivery is stamped with sender- and receiver-side sequence
//     numbers drawn from each domain's deterministic schedule, producing a
//     canonical delivery log.
//   - Merged determinism checking: Fingerprint condenses a partitioned
//     execution into per-domain schedule hashes plus the delivery-log hash.
//     Two runs of the same program and configuration must produce equal
//     fingerprints, which replaces the single global schedule hash of the
//     one-domain design.
//
// The determinism argument is compositional. Each domain's schedule is a
// deterministic function of the synchronization structure its threads
// execute, as in the single-scheduler system. A boundary operation occupies
// exactly one slot in its domain's schedule regardless of how long it waits
// in real time for the peer domain (the calling thread HOLDS its domain's
// turn for the duration, so arrival timing can never reorder anything), and
// the value a receive returns is determined by the channel's FIFO order,
// which is in turn determined by the sender domain's schedule. By induction
// over deliveries, every domain's schedule and every delivery stamp is a
// function of program + configuration only.
package domain

import (
	"fmt"
	"sync"

	"qithread/internal/core"
)

// Domain is one scheduler domain: an isolated turn mechanism with its own
// policy stack. Threads registered with the domain's scheduler may
// only operate on synchronization objects created in the same domain;
// crossing the boundary is legal only through a Channel. It is the one record
// of a domain: the runtime that owns the domain holds it by value and fills
// it in at creation, and channels point at it.
type Domain struct {
	ID    int             // creation index within the runtime (0 is the default domain)
	Name  string          // debugging name
	Sched *core.Scheduler // the domain's deterministic scheduler

	// Xseq counts boundary operations (channel sends, receives, closes)
	// executed by this domain's threads, in domain-schedule order. It is only
	// read and written while the owning thread holds this domain's turn, so
	// the turn's handoff chain orders all accesses; deliveries are stamped
	// with it and a checkpoint carries it.
	Xseq int64
}

func (d *Domain) String() string { return fmt.Sprintf("domain %d (%s)", d.ID, d.Name) }

// Group is what a partitioned runtime owns above its domains: the
// cross-domain channels, whose ids — allocated in creation order — seed every
// boundary stamp. Channels must therefore be created in a deterministic order
// (in practice: by one thread, or before the program's concurrency starts).
// The zero value is an empty group.
type Group struct {
	// RetainDeliveryLog materializes every channel's Delivery log in memory
	// (DeliveryLog). Fingerprinting does not need it — deliveries are folded
	// into per-channel running hashes as they complete — so the log is a
	// debug facility for trace inspection and log diffing, off by default to
	// keep the boundary O(1) memory in steady state. Set it before the first
	// NewChannel.
	RetainDeliveryLog bool

	mu       sync.Mutex
	channels []*Channel
}

// Channels returns the cross-domain channels in id order.
func (g *Group) Channels() []*Channel {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Channel, len(g.channels))
	copy(out, g.channels)
	return out
}

// Package domain partitions a deterministic execution into scheduler
// domains: disjoint groups of threads and synchronization objects, each
// scheduled by its own turn mechanism (internal/core) with its own policy
// stack. The paper's turn serializes every synchronization operation of the
// process through one global order, which is the scalability ceiling of the
// single-scheduler design; determinism, however, only requires a total order
// per interacting group. This package supplies the three pieces the
// partitioned design needs on top of the per-domain schedulers:
//
//   - Partitioning: Group is the registry of domains. Domain ids are
//     allocated in creation order, so a program that creates its domains
//     deterministically gets the same partition on every run.
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
// crossing the boundary is legal only through a Channel.
type Domain struct {
	id    int
	name  string
	sched *core.Scheduler

	// xseq counts boundary operations (channel sends, receives, closes)
	// executed by this domain's threads, in domain-schedule order. It is only
	// mutated while the owning thread holds this domain's turn, so the turn's
	// handoff chain orders all accesses; deliveries are stamped with it.
	xseq int64
}

// ID returns the domain's creation index within its group.
func (d *Domain) ID() int { return d.id }

// Name returns the domain's debugging name.
func (d *Domain) Name() string { return d.name }

// Scheduler returns the domain's deterministic scheduler.
func (d *Domain) Scheduler() *core.Scheduler { return d.sched }

func (d *Domain) String() string { return fmt.Sprintf("domain %d (%s)", d.id, d.name) }

// Config configures a Group.
type Config struct {
	// NewScheduler builds the scheduler of one domain. It is called once per
	// Add with the domain's id; implementations must set
	// core.Config.DomainID to that id so trace events attribute correctly.
	NewScheduler func(id int) *core.Scheduler

	// RetainDeliveryLog materializes every channel's Delivery log in memory
	// (Group.DeliveryLog). Fingerprinting does not need it — deliveries are
	// folded into per-channel running hashes as they complete — so the log
	// is a debug facility for trace inspection and log diffing, off by
	// default to keep the boundary O(1) memory in steady state.
	RetainDeliveryLog bool
}

// Group is the partition registry of one runtime: it allocates domain ids,
// owns the cross-domain channels, and produces the merged determinism
// fingerprint. Domains and channels must be created in a deterministic order
// (in practice: by one thread, or before the program's concurrency starts) —
// their ids seed every boundary stamp.
type Group struct {
	cfg Config

	mu       sync.Mutex
	domains  []*Domain
	channels []*Channel
}

// NewGroup creates an empty partition registry.
func NewGroup(cfg Config) *Group {
	if cfg.NewScheduler == nil {
		panic("domain: Config.NewScheduler is required")
	}
	return &Group{cfg: cfg}
}

// Add creates the next scheduler domain. The first Add of a runtime is the
// default domain (id 0) that single-domain programs run in.
func (g *Group) Add(name string) *Domain {
	g.mu.Lock()
	defer g.mu.Unlock()
	id := len(g.domains)
	d := &Domain{id: id, name: name, sched: g.cfg.NewScheduler(id)}
	g.domains = append(g.domains, d)
	return d
}

// Domain returns the domain with the given id.
func (g *Group) Domain(id int) *Domain {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 || id >= len(g.domains) {
		panic(fmt.Sprintf("domain: no domain %d (have %d)", id, len(g.domains)))
	}
	return g.domains[id]
}

// Len returns the number of domains.
func (g *Group) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.domains)
}

// Domains returns the domains in id order.
func (g *Group) Domains() []*Domain {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Domain, len(g.domains))
	copy(out, g.domains)
	return out
}

// Channels returns the cross-domain channels in id order.
func (g *Group) Channels() []*Channel {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Channel, len(g.channels))
	copy(out, g.channels)
	return out
}

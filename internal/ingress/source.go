package ingress

import (
	"bufio"
	"net"
	"sync"
)

// Port is a source's handle on the collector: the free-running producer side
// of the ingress frontier. Push and Close are safe for concurrent use, so an
// adapter may fan its work out over helper goroutines (one per accepted
// connection, say) that share the port.
type Port struct {
	c      *collector
	id     int
	closed sync.Once
	xform  func(data []byte) [][]byte // TransformPort's payload hook
}

// ID returns the source id events pushed through this port carry.
func (p *Port) ID() int { return p.id }

// Push stages one event, blocking in real time while the staging buffer or
// this source's quota is full — the backpressure that keeps a fast producer
// from outrunning admission. The payload is NOT copied; callers must not
// reuse the slice.
func (p *Port) Push(data []byte) {
	if p.xform != nil {
		for _, d := range p.xform(data) {
			p.c.push(p.id, d)
		}
		return
	}
	p.c.push(p.id, data)
}

// TransformPort returns a view of p that passes every pushed payload through
// fn first and stages whatever fn returns — none (drop), one, or several
// (duplication). The view shares p's collector slot and source id; closing
// either closes the source. Fault-injection adapters are the intended caller
// (workload/controlplane.FaultSpec.Wrap).
func TransformPort(p *Port, fn func(data []byte) [][]byte) *Port {
	return &Port{c: p.c, id: p.id, xform: fn}
}

// Close marks the source exhausted. Idempotent; the gateway also closes the
// port when the source's Run returns, so adapters only call it to end input
// early.
func (p *Port) Close() {
	p.closed.Do(func() { p.c.closeSource(p.id) })
}

// Source is a free-running producer of external events. Run is invoked on
// its own goroutine and feeds the port until the outside input is exhausted;
// the port is closed automatically when Run returns.
type Source interface {
	// Name returns the source's debugging name.
	Name() string
	// Run pushes the source's events. It may block arbitrarily (socket
	// reads, timer waits) — it executes entirely outside the deterministic
	// schedule.
	Run(p *Port)
}

// FuncSource adapts a function to the Source interface, the shape synthetic
// feeds and tests use.
func FuncSource(name string, run func(p *Port)) Source {
	return funcSource{name: name, run: run}
}

type funcSource struct {
	name string
	run  func(*Port)
}

func (s funcSource) Name() string { return s.name }
func (s funcSource) Run(p *Port)  { s.run(p) }

// ListenerSource adapts a net.Listener: the TCP front door of a
// deterministic server. It accepts connections until the listener is closed
// and reads each connection on its own goroutine, pushing one event per
// newline-delimited record (the framing real ingest protocols would replace
// with length-prefixing). All connections share the listener's source id —
// the admission log cares about what arrived, not which socket carried it;
// programs that need per-connection attribution put it in the payload.
type ListenerSource struct {
	L net.Listener
}

func (s ListenerSource) Name() string { return "listener(" + s.L.Addr().String() + ")" }

func (s ListenerSource) Run(p *Port) {
	var wg sync.WaitGroup
	for {
		conn, err := s.L.Accept()
		if err != nil {
			break // listener closed: stop accepting, drain open connections
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			for sc.Scan() {
				line := sc.Bytes()
				if len(line) == 0 {
					continue
				}
				data := make([]byte, len(line)) // Scanner reuses its buffer
				copy(data, line)
				p.Push(data)
			}
		}()
	}
	wg.Wait()
}

package qithread

import (
	"testing"

	"qithread/internal/trace"
)

func TestPipeFanInFanOut(t *testing.T) {
	for _, cfg := range allModes() {
		t.Run(cfg.Mode.String()+"/"+cfg.Policies.String(), func(t *testing.T) {
			rt := New(cfg)
			var sum int
			rt.Run(func(main *Thread) {
				in := rt.NewPipe(main, "in", 4)
				out := rt.NewPipe(main, "out", 4)
				var workers []*Thread
				for i := 0; i < 3; i++ {
					workers = append(workers, main.Create("w", func(w *Thread) {
						for {
							v, ok := in.Recv(w)
							if !ok {
								return
							}
							w.Work(30)
							out.Send(w, v.(int)*2)
						}
					}))
				}
				collector := main.Create("collector", func(w *Thread) {
					for {
						v, ok := out.Recv(w)
						if !ok {
							return
						}
						sum += v.(int)
					}
				})
				for i := 1; i <= 10; i++ {
					in.Send(main, i)
				}
				in.Close(main)
				for _, w := range workers {
					main.Join(w)
				}
				out.Close(main)
				main.Join(collector)
			})
			if sum != 110 { // 2*(1+..+10)
				t.Fatalf("sum = %d, want 110", sum)
			}
		})
	}
}

func TestPipeCloseSemantics(t *testing.T) {
	rt := New(Config{Mode: RoundRobin, Policies: AllPolicies})
	rt.Run(func(main *Thread) {
		p := rt.NewPipe(main, "p", 2)
		if !p.Send(main, "a") {
			t.Error("send to open pipe failed")
		}
		p.Close(main)
		if p.Send(main, "b") {
			t.Error("send to closed pipe succeeded")
		}
		if v, ok := p.Recv(main); !ok || v != "a" {
			t.Errorf("queued message lost after close: %v %v", v, ok)
		}
		if _, ok := p.Recv(main); ok {
			t.Error("recv on drained closed pipe should fail")
		}
	})
}

func TestPipeBlockedSenderWokenByClose(t *testing.T) {
	rt := New(Config{Mode: RoundRobin, Policies: AllPolicies})
	rt.Run(func(main *Thread) {
		p := rt.NewPipe(main, "p", 1)
		p.Send(main, 1) // fill
		sender := main.Create("sender", func(w *Thread) {
			if p.Send(w, 2) { // blocks, then fails after close
				t.Error("send should fail after close")
			}
		})
		for i := 0; i < 4; i++ {
			main.Yield()
		}
		p.Close(main)
		main.Join(sender)
	})
}

// TestPipeBackpressureAndLen: a pipe holds capacity messages; the next Send
// blocks until the consumer drains one, and the queued ones come out first.
func TestPipeBackpressureAndLen(t *testing.T) {
	rt := New(Config{Mode: RoundRobin})
	rt.Run(func(main *Thread) {
		p := rt.NewPipe(main, "p", 2)
		p.Send(main, 1)
		p.Send(main, 2)
		consumer := main.Create("c", func(w *Thread) {
			for i := 1; i <= 4; i++ {
				v, ok := p.Recv(w)
				if !ok || v.(int) != i {
					t.Errorf("recv %d: got %v %v", i, v, ok)
				}
				w.Work(20)
			}
		})
		p.Send(main, 3) // blocks until the consumer drains
		p.Send(main, 4)
		main.Join(consumer)
	})
}

// TestPipeDeterministicDelivery: the assignment of messages to competing
// receivers is part of the deterministic schedule.
func TestPipeDeterministicDelivery(t *testing.T) {
	run := func() (string, uint64) {
		rt := New(Config{Mode: RoundRobin, Policies: AllPolicies, Record: true})
		var got [2][]int
		rt.Run(func(main *Thread) {
			p := rt.NewPipe(main, "p", 3)
			var kids []*Thread
			for i := 0; i < 2; i++ {
				i := i
				kids = append(kids, main.Create("r", func(w *Thread) {
					for {
						v, ok := p.Recv(w)
						if !ok {
							return
						}
						got[i] = append(got[i], v.(int))
						w.Work(int64(10 * (v.(int) + 1)))
					}
				}))
			}
			for v := 0; v < 8; v++ {
				p.Send(main, v)
			}
			p.Close(main)
			for _, k := range kids {
				main.Join(k)
			}
		})
		return formatInts(got[0]) + "|" + formatInts(got[1]), trace.Hash(rt.Trace())
	}
	d1, h1 := run()
	d2, h2 := run()
	if d1 != d2 || h1 != h2 {
		t.Fatalf("pipe delivery not deterministic: %q/%#x vs %q/%#x", d1, h1, d2, h2)
	}
}

func formatInts(xs []int) string {
	s := ""
	for _, x := range xs {
		s += string(rune('0' + x))
	}
	return s
}

// pipeEdgeModes are the two deterministic turn modes the edge-case tests run
// under (the satellite matrix: vanilla-policy round robin and the
// logical-clock baseline).
func pipeEdgeModes() []Config {
	return []Config{
		{Mode: RoundRobin, Policies: AllPolicies},
		{Mode: LogicalClock},
	}
}

// TestPipeCloseWakesSendersAndReceivers: one Close wakes blocked senders
// (full pipe) and blocked receivers (empty pipe) alike; the senders' messages
// are dropped, the pre-close messages stay receivable.
func TestPipeCloseWakesSendersAndReceivers(t *testing.T) {
	for _, cfg := range pipeEdgeModes() {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			rt := New(cfg)
			rt.Run(func(main *Thread) {
				full := rt.NewPipe(main, "full", 1)
				empty := rt.NewPipe(main, "empty", 1)
				full.Send(main, 0) // fill: subsequent senders block
				var sent [2]bool
				var recvOK [2]bool
				var kids []*Thread
				for i := 0; i < 2; i++ {
					i := i
					kids = append(kids, main.Create("s", func(w *Thread) {
						sent[i] = full.Send(w, 100+i)
					}))
					kids = append(kids, main.Create("r", func(w *Thread) {
						_, recvOK[i] = empty.Recv(w)
					}))
				}
				for i := 0; i < 8; i++ {
					main.Yield() // let every child reach its blocking op
				}
				full.Close(main)
				empty.Close(main)
				for _, k := range kids {
					main.Join(k)
				}
				if sent[0] || sent[1] {
					t.Errorf("blocked senders should fail after close: %v", sent)
				}
				if recvOK[0] || recvOK[1] {
					t.Errorf("blocked receivers should fail after close: %v", recvOK)
				}
				if v, ok := full.Recv(main); !ok || v != 0 {
					t.Errorf("pre-close message lost: %v %v", v, ok)
				}
				if _, ok := full.Recv(main); ok {
					t.Error("dropped message of a woken sender was delivered")
				}
			})
		})
	}
}

// TestPipeSendConcurrentCloseDrops: the satellite's doc/behaviour contract —
// a message passed to Send on a concurrently-closed pipe is dropped and false
// returned, so a false Send guarantees no receiver observes the message.
func TestPipeSendConcurrentCloseDrops(t *testing.T) {
	for _, cfg := range pipeEdgeModes() {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			rt := New(cfg)
			rt.Run(func(main *Thread) {
				p := rt.NewPipe(main, "p", 1)
				p.Send(main, "keep")
				var sent bool
				sender := main.Create("sender", func(w *Thread) {
					sent = p.Send(w, "dropped") // blocks on the full pipe
				})
				for i := 0; i < 6; i++ {
					main.Yield()
				}
				p.Close(main)
				main.Join(sender)
				if sent {
					t.Error("Send on a concurrently-closed pipe reported true")
				}
				var drained []any
				for {
					v, ok := p.Recv(main)
					if !ok {
						break
					}
					drained = append(drained, v)
				}
				if len(drained) != 1 || drained[0] != "keep" {
					t.Errorf("drained %v, want just the pre-close message", drained)
				}
				if p.Send(main, "late") {
					t.Error("Send after close reported true")
				}
			})
		})
	}
}

// TestXPipeSingleFormsAllocFree: Send and Recv are SendAll / RecvUpTo of one
// message through a stack [1]any, so a deterministic single-message round
// trip — sender and receiver domain both counted — allocates nothing, the
// same as the batch forms it delegates to.
func TestXPipeSingleFormsAllocFree(t *testing.T) {
	rt := New(Config{Mode: RoundRobin, Policies: AllPolicies})
	shard := rt.NewDomain("shard")
	p := rt.NewXPipe("x", rt.Domain(0), shard, 4)
	received := 0
	shard.Start("rx", func(w *Thread) {
		for {
			if _, ok := p.Recv(w); !ok {
				return
			}
			received++
		}
	})
	var allocs float64
	rt.Run(func(main *Thread) {
		shard.Launch()
		v := any("payload")
		allocs = testing.AllocsPerRun(200, func() {
			if !p.Send(main, v) {
				t.Error("Send on an open pipe reported false")
			}
		})
		p.Close(main)
	})
	if received != 201 { // AllocsPerRun makes one warm-up call
		t.Fatalf("receiver got %d messages, want 201", received)
	}
	if allocs != 0 {
		t.Fatalf("XPipe Send+Recv allocates %.0f objects per message, want 0", allocs)
	}
}

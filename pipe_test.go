package qithread

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"qithread/internal/core"
	"qithread/internal/logio"
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

// TestXPipeSingleFormsAllocFree: the steady-state message path allocates
// nothing — the ring is the message pool, deliveries fold into a running hash
// and wake-ups go to parked waiters only. Send and Recv are SendAll and
// RecvUpTo of one message through a stack [1]any, so a deterministic
// single-message round trip allocates nothing, and neither does a batched one,
// which reuses the caller's slices. Sender and receiver domain are both
// counted.
func TestXPipeSingleFormsAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name        string
		k, capacity int // messages per call; pipe capacity
	}{{"Send+Recv", 1, 4}, {"SendAll+RecvUpTo", 8, 8}} {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(Config{Mode: RoundRobin, Policies: AllPolicies})
			shard := rt.NewDomain("shard")
			p := rt.NewXPipe("x", rt.Domain(0), shard, tc.capacity)
			received := 0
			shard.Start("rx", func(w *Thread) {
				dst := make([]any, tc.k)
				for {
					var ok bool
					if tc.k == 1 {
						dst[0], ok = p.Recv(w)
					} else {
						_, ok = p.RecvUpTo(w, dst)
					}
					if !ok {
						return
					}
					received++
				}
			})
			vs := make([]any, tc.k)
			for i := range vs {
				vs[i] = "payload"
			}
			var allocs float64
			rt.Run(func(main *Thread) {
				shard.Launch()
				allocs = testing.AllocsPerRun(200, func() {
					if tc.k == 1 && !p.Send(main, vs[0]) || tc.k > 1 && p.SendAll(main, vs) != tc.k {
						t.Error("sending on an open pipe fell short")
					}
				})
				p.Close(main)
			})
			if received != 201 { // AllocsPerRun makes one warm-up call
				t.Fatalf("receiver completed %d calls, want 201", received)
			}
			if allocs != 0 {
				t.Fatalf("a round trip of %d message(s) allocates %.0f objects, want 0", tc.k, allocs)
			}
		})
	}
}

// ringPipe is an XPipe from the default domain to a second one of a
// deterministic runtime that never runs, for the tests that drive the ring's
// batch methods with explicit stamps: one test goroutine plays both ends.
func ringPipe(capacity int) (*Runtime, *XPipe) {
	rt := New(Config{Mode: RoundRobin})
	return rt, rt.NewXPipe("x", rt.Domain(0), rt.NewDomain("b"), capacity)
}

// parked reads one of p's parked-waiter counts.
func parked(p *XPipe, count *int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return *count
}

// TestSendBatchEqualsSingleSends is the batching determinism property: under
// the same stamps (one held turn on each side), a batch of k followed by a
// receive of k produces exactly the deliveries of k single sends followed by
// k single receives — consecutive message and boundary sequences, identical
// turn stamps, so the same delivery count and hash. Batching changes how many
// schedule slots a transfer occupies, never the per-message stamp expansion.
func TestSendBatchEqualsSingleSends(t *testing.T) {
	const sendTurn, recvTurn, vtime = 5, 9, 300
	property := func(kSeed, capSeed uint8) bool {
		capacity := int(capSeed%8) + 1
		k := int(kSeed%uint8(capacity)) + 1 // 1..capacity
		vs := make([]any, k)
		for i := range vs {
			vs[i] = i
		}

		batched, pb := ringPipe(capacity)
		if n := pb.sendBatch(nil, vs, sendTurn, vtime); n != k {
			t.Fatalf("sendBatch sent %d, want %d", n, k)
		}
		dst := make([]any, k)
		if n, vmax := pb.recvBatch(nil, dst, recvTurn); n != k || vmax != vtime {
			t.Fatalf("recvBatch got (%d, vtime %d), want (%d, %d)", n, vmax, k, vtime)
		}

		single, ps := ringPipe(capacity)
		for i := range vs {
			if ps.sendBatch(nil, vs[i:i+1], sendTurn, vtime) != 1 {
				t.Fatal("single send failed")
			}
		}
		for i := range vs {
			var one [1]any
			if n, _ := ps.recvBatch(nil, one[:], recvTurn); n != 1 || one[0] != dst[i] {
				t.Fatalf("single receive %d got (%d, %v), want (1, %v)", i, n, one[0], dst[i])
			}
		}

		if pb.delivered != uint64(k) || ps.delivered != uint64(k) || pb.hash != ps.hash {
			t.Logf("batched: %d deliveries, hash %016x", pb.delivered, pb.hash)
			t.Logf("single:  %d deliveries, hash %016x", ps.delivered, ps.hash)
			return false
		}
		return batched.Fingerprint().Equal(single.Fingerprint())
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCloseUnderBlockedBatch: a receiver parked waiting for a full batch
// must, when the sender closes instead, return the closed-remainder
// (everything shipped before the close) and then report end-of-stream.
func TestCloseUnderBlockedBatch(t *testing.T) {
	_, p := ringPipe(4)
	if n := p.sendBatch(nil, []any{"a", "b"}, 1, 0); n != 2 {
		t.Fatalf("sendBatch sent %d, want 2", n)
	}
	got := make(chan []any, 1)
	go func() {
		dst := make([]any, 4) // wants 4, only 2 will ever arrive
		n, _ := p.recvBatch(nil, dst, 1)
		got <- dst[:n]
	}()
	for parked(p, &p.recvW) == 0 {
		runtime.Gosched()
	}
	p.close()
	if vs := <-got; !reflect.DeepEqual(vs, []any{"a", "b"}) {
		t.Fatalf("blocked receive returned %v, want the closed-remainder [a b]", vs)
	}
	if n, _ := p.recvBatch(nil, make([]any, 4), 2); n != 0 {
		t.Fatalf("drained closed pipe delivered %d, want 0", n)
	}
	if n := p.sendBatch(nil, []any{"c"}, 2, 0); n != 0 {
		t.Fatalf("sendBatch on a closed pipe sent %d, want 0", n)
	}
}

// TestPartialSendLeavesReceiverParked: a send that leaves a parked receiver
// short of its batch does not wake it. A deterministic receiver therefore
// stays recorded as parked (recvT) across the partial send, where a wake-up
// would clear the record for the receiver to re-park and set it again; the
// send that completes the batch wakes it and clears the record.
func TestPartialSendLeavesReceiverParked(t *testing.T) {
	rt, p := ringPipe(4)
	ct := new(core.Thread) // the receiver domain's thread; the runtime never runs
	rt.domMu.Lock()
	rt.xlive++ // the receiver's domain is live too, so one parked thread is no deadlock
	rt.domMu.Unlock()
	got := make(chan int, 1)
	go func() {
		n, _ := p.recvBatch(ct, make([]any, 4), 1)
		got <- n
	}()
	for parked(p, &p.recvW) == 0 {
		runtime.Gosched()
	}
	recorded := func() (*core.Thread, int32) {
		p.mu.Lock()
		defer p.mu.Unlock()
		rt.domMu.Lock()
		defer rt.domMu.Unlock()
		return p.recvT, rt.xparked
	}
	for i := range 3 {
		p.sendBatch(nil, []any{i}, 1, 0)
		if slot, n := recorded(); slot != ct || n != 1 {
			t.Fatalf("after %d of 4 messages the receiver is recorded as %v (%d parked), want %v still parked", i+1, slot, n, ct)
		}
	}
	p.sendBatch(nil, []any{3}, 1, 0)
	if n := <-got; n != 4 {
		t.Fatalf("the receiver got %d messages, want its batch of 4", n)
	}
	if slot, n := recorded(); slot != nil || n != 0 {
		t.Fatalf("after the batch completed the receiver is recorded as %v (%d parked), want none", slot, n)
	}
}

// TestMixedBatchReceivers: Nondet receivers parked for batches of different
// sizes share one wake-up threshold, the smallest batch any of them waits
// for: with the one-message receiver parked first and three larger ones
// after it, a single message still reaches it, no further send or close
// needed. Every message reaches exactly one receiver, whatever the mix of
// batch sizes, and a close releases the receivers still short of theirs.
func TestMixedBatchReceivers(t *testing.T) {
	for _, total := range []int{0, 2, 7, 200} {
		_, p := ringPipe(5)
		sizes := []int{1, 3, 5, 5}
		// Every batch received, then one empty batch per receiver at the close.
		got := make(chan []any, total+len(sizes))
		for i, k := range sizes {
			go func() {
				dst := make([]any, k)
				for {
					n, _ := p.recvBatch(nil, dst, 1)
					got <- slices.Clone(dst[:n])
					if n == 0 {
						return
					}
				}
			}()
			for parked(p, &p.recvW) <= i {
				runtime.Gosched()
			}
		}
		receive := func() []any {
			select {
			case b := <-got:
				return b
			case <-time.After(10 * time.Second):
				t.Fatalf("total %d: no receiver returned", total)
				return nil
			}
		}
		seen := make([]int, total)
		for i := 0; i < total; {
			k := min(1+i%2, total-i) // sends of one and of two messages
			vs := []any{i, i + 1}[:k]
			if n := p.sendBatch(nil, vs, 1, 0); n != k {
				t.Fatalf("total %d: sendBatch sent %d, want %d", total, n, k)
			}
			if i == 0 {
				if b := receive(); len(b) != 1 || b[0] != 0 {
					t.Fatalf("total %d: the first message alone delivered %v, want [0] to the one-message receiver", total, b)
				}
				seen[0]++
			}
			i += k
		}
		p.close()
		for done := 0; done < len(sizes); {
			b := receive()
			if len(b) == 0 {
				done++
			}
			for _, v := range b {
				seen[v.(int)]++
			}
		}
		for v, c := range seen {
			if c != 1 {
				t.Fatalf("total %d: message %d was received %d times, want once", total, v, c)
			}
		}
	}
}

// TestDeliveryHashIncremental cross-checks the incremental fold against the
// stamps the test drives: a pipe's running hash must equal the fold of each
// delivery's eight stamps — pipe id, message sequence, sender and receiver
// domain, send turn and xseq, receive turn and xseq — in delivery order, and
// the fingerprint's Deliveries the (id, count, hash) fold over pipes in id
// order. Each domain's xseq counts its boundary messages, sent and received.
func TestDeliveryHashIncremental(t *testing.T) {
	rt := New(Config{Mode: RoundRobin})
	b := rt.NewDomain("b")
	x := rt.NewXPipe("x", rt.Domain(0), b, 3)
	y := rt.NewXPipe("y", b, rt.Domain(0), 2)

	x.sendBatch(nil, []any{1, 2, 3}, 1, 0) // d0 xseq 1..3
	x.recvBatch(nil, make([]any, 3), 1)    // d1 xseq 1..3
	y.sendBatch(nil, []any{"r"}, 2, 0)     // d1 xseq 4
	y.recvBatch(nil, make([]any, 1), 2)    // d0 xseq 4
	x.sendBatch(nil, []any{4}, 3, 0)       // d0 xseq 5
	x.recvBatch(nil, make([]any, 1), 3)    // d1 xseq 5

	// seq, from, to, send turn, send xseq, receive turn, receive xseq
	stamps := map[*XPipe][][7]uint64{
		x: {{1, 0, 1, 1, 1, 1, 1}, {2, 0, 1, 1, 2, 1, 2}, {3, 0, 1, 1, 3, 1, 3}, {4, 0, 1, 3, 5, 3, 5}},
		y: {{1, 1, 0, 2, 4, 2, 4}},
	}
	want := uint64(logio.FNVOffset64)
	for _, p := range []*XPipe{x, y} {
		h := uint64(logio.FNVOffset64)
		for _, d := range stamps[p] {
			h = logio.FNVFold64(h, p.id)
			for _, w := range d {
				h = logio.FNVFold64(h, w)
			}
		}
		if int(p.delivered) != len(stamps[p]) {
			t.Fatalf("pipe %s: delivered=%d, want %d", p.name, p.delivered, len(stamps[p]))
		}
		if h != p.hash {
			t.Fatalf("pipe %s: incremental hash %016x, recomputed %016x", p.name, p.hash, h)
		}
		want = logio.FNVFold64(want, p.id)
		want = logio.FNVFold64(want, p.delivered)
		want = logio.FNVFold64(want, p.hash)
	}
	if got := rt.Fingerprint().Deliveries; got != want {
		t.Fatalf("fingerprint deliveries %016x, want %016x", got, want)
	}
}

// TestXPipeTraffic: an XPipe carries data under every mode — in Nondet mode
// too, where no turn orders the senders. Four sender-domain threads push 50
// values each through a capacity-2 pipe; the receiver, three slots at a time,
// sees each of the 200 exactly once. A deterministic run stamps every one of
// them into the delivery hash; a Nondet run stamps none.
func TestXPipeTraffic(t *testing.T) {
	const senders, each = 4, 50
	for _, cfg := range partitionModes() {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			rt := New(cfg)
			src := rt.NewDomain("src")
			p := rt.NewXPipe("x", src, rt.Domain(0), 2)
			src.Start("root", func(root *Thread) {
				var kids [senders]*Thread
				for i := range kids {
					kids[i] = root.Create("tx", func(x *Thread) {
						vs := make([]any, each)
						for j := range vs {
							vs[j] = i*each + j
						}
						if n := p.SendAll(x, vs); n != each {
							t.Errorf("sender %d: SendAll sent %d, want %d", i, n, each)
						}
					})
				}
				for _, k := range kids {
					root.Join(k)
				}
				p.Close(root)
			})
			seen := make([]int, senders*each)
			rt.Run(func(main *Thread) {
				src.Launch()
				var dst [3]any
				for {
					n, ok := p.RecvUpTo(main, dst[:])
					for _, v := range dst[:n] {
						seen[v.(int)]++
					}
					if !ok {
						return
					}
				}
			})
			for v, c := range seen {
				if c != 1 {
					t.Fatalf("value %d arrived %d times, want once", v, c)
				}
			}
			want := uint64(senders * each)
			if !rt.det() {
				want = 0
			}
			if p.delivered != want {
				t.Fatalf("%d stamped deliveries, want %d", p.delivered, want)
			}
		})
	}
}

// TestXPipeCloseUnderBlockedSendAll: in Nondet mode no turn spans a SendAll,
// so another sender-domain thread can close the pipe while a sender waits
// mid-batch on a full ring. The sender must return what it enqueued, and the
// receiver must get exactly the values enqueued before the close. (In a
// deterministic mode the waiting sender holds its domain's turn, so no close
// can land there.)
func TestXPipeCloseUnderBlockedSendAll(t *testing.T) {
	rt := New(Config{Mode: Nondet})
	src := rt.NewDomain("src")
	p := rt.NewXPipe("x", src, rt.Domain(0), 2)
	closed := make(chan struct{})
	sent := -1
	src.Start("root", func(root *Thread) {
		p.Send(root, 0) // one free slot left
		tx := root.Create("tx", func(x *Thread) {
			sent = p.SendAll(x, []any{1, 2}) // enqueues 1, then waits mid-batch
		})
		for parked(p, &p.sendW) == 0 {
			root.Yield()
		}
		p.Close(root)
		root.Join(tx)
		close(closed)
	})
	var got []any
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Run(func(main *Thread) {
			src.Launch()
			<-closed
			var dst [2]any
			for {
				n, ok := p.RecvUpTo(main, dst[:])
				got = append(got, dst[:n]...)
				if !ok {
					return
				}
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not release the sender waiting mid-batch")
	}
	if sent != 1 {
		t.Errorf("SendAll returned %d, want 1: the value after the close is dropped", sent)
	}
	if !reflect.DeepEqual(got, []any{0, 1}) {
		t.Errorf("received %v, want [0 1]: exactly what was enqueued before the close", got)
	}
}

// TestLaunchedDomainDeadlockReported: a launched domain's own deadlock reaches
// the handler installed on the default domain's scheduler, and its report
// names the domain. The root of domain 1 locks m and joins a child that
// blocks on m. The report is made by the domain's driver, which would then
// park for good; the handler ends it instead (runtime.Goexit), so the frozen
// domain leaves no goroutine of spawn's behind for TestRunLeavesNoGoroutines
// to find. When the
// main thread then receives on an XPipe from that domain, only the in-domain
// report arrives: the frozen domain is live but not parked in an XPipe, so the
// cross-domain detector stays silent. Closing the pipe then lets main finish.
func TestLaunchedDomainDeadlockReported(t *testing.T) {
	for _, viaPipe := range []bool{false, true} {
		rt := New(Config{Mode: RoundRobin})
		d := rt.NewDomain("d")
		x := rt.NewXPipe("x", d, rt.Domain(0), 1)
		d.Start("r", func(t *Thread) {
			m := rt.NewMutex(t, "m")
			m.Lock(t)
			t.Join(t.Create("stuck", func(t *Thread) { m.Lock(t) }))
			x.Send(t, 1)
		})
		report := make(chan string, 2)
		rt.Scheduler().SetDeadlockHandler(func(msg string) {
			report <- msg
			runtime.Goexit()
		})
		go rt.Run(func(main *Thread) {
			d.Launch()
			if viaPipe {
				x.Recv(main)
			}
		})
		select {
		case msg := <-report:
			for _, want := range []string{"in domain 1", "waitQ[mutex:m#2]: T1(stuck)", "waitQ[thread:stuck#3]: T0(r)"} {
				if !strings.Contains(msg, want) {
					t.Errorf("pipe %v: report lacks %q:\n%s", viaPipe, want, msg)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("pipe %v: the launched domain's deadlock was never reported", viaPipe)
		}
		if viaPipe {
			// Once the main thread is parked in the XPipe, the detector has
			// run for that park: a report it made would already be counted.
			for parked := int32(0); parked != 1; time.Sleep(time.Millisecond) {
				rt.domMu.Lock()
				parked = rt.xparked
				rt.domMu.Unlock()
			}
		}
		if n := len(report); n != 0 {
			t.Errorf("pipe %v: %d report(s) after the in-domain one, want none:\n%s", viaPipe, n, <-report)
		}
		x.close()
	}
}

// TestXPipeDeadlockReported: domains that wait in XPipes on each other are a
// deadlock the runtime reports, not a hang. Two launched domains that each
// receive from the other before they send form a cycle; a main thread that
// receives more than a finished domain sent it is the end of a chain. The
// report goes to the default domain's deadlock handler from whichever
// domain parked or finished last, and its text does not depend on which that
// was. Closing the pipes from here then lets every domain finish, so the run
// leaves no goroutine behind.
func TestXPipeDeadlockReported(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(rt *Runtime) (main func(*Thread), pipes []*XPipe)
		want  string
	}{
		{"cycle", func(rt *Runtime) (func(*Thread), []*XPipe) {
			a, b := rt.NewDomain("a"), rt.NewDomain("b")
			ab, ba := rt.NewXPipe("ab", a, b, 1), rt.NewXPipe("ba", b, a, 1)
			a.Start("ra", func(t *Thread) { ba.Recv(t); ab.Send(t, 1) })
			b.Start("rb", func(t *Thread) { ab.Recv(t); ba.Send(t, 2) })
			return func(*Thread) { a.Launch(); b.Launch() }, []*XPipe{ab, ba}
		}, `qithread: cross-domain deadlock: every live domain waits in an XPipe
  domain 1 (a): T0(ra) receives on xpipe "ba" (#2) from domain 2 (b)
  domain 2 (b): T0(rb) receives on xpipe "ab" (#1) from domain 1 (a)
  cycle: domain 1 (a) -> domain 2 (b) -> domain 1 (a)
`},
		{"chain", func(rt *Runtime) (func(*Thread), []*XPipe) {
			b := rt.NewDomain("b")
			x := rt.NewXPipe("x", b, rt.Domain(0), 1)
			b.Start("rb", func(t *Thread) { x.Send(t, 1) })
			return func(main *Thread) { b.Launch(); x.Recv(main); x.Recv(main) }, []*XPipe{x}
		}, `qithread: cross-domain deadlock: every live domain waits in an XPipe
  domain 0 (main): T0(main) receives on xpipe "x" (#1) from domain 1 (b)
  chain: domain 0 (main) -> domain 1 (b), which finished without closing xpipe "x"
`},
	} {
		rt := New(Config{Mode: RoundRobin})
		main, pipes := c.build(rt)
		report := make(chan string, 1)
		rt.Scheduler().SetDeadlockHandler(func(msg string) { report <- msg })
		done := make(chan struct{})
		go func() {
			rt.Run(main)
			close(done)
		}()
		select {
		case msg := <-report:
			if msg != c.want {
				t.Errorf("%s: report\n%s\nwant\n%s", c.name, msg, c.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: a cross-domain deadlock was never reported", c.name)
		}
		for _, p := range pipes {
			p.close()
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the run did not finish once its pipes were closed", c.name)
		}
	}
}

package domain

import (
	"reflect"
	"testing"
	"testing/quick"

	"qithread/internal/core"
	"qithread/internal/logio"
)

// testGroup builds a group with the delivery log retained or not and two
// domains (RoundRobin schedulers, no semantic policies), and registers one
// turn-holding thread per domain. Raw Channel operations require the caller
// to hold its endpoint domain's turn; a single test goroutine may hold both
// domains' turns at once, which lets these tests drive both channel ends
// without real concurrency.
func testGroup(t testing.TB, retain bool) (g *Group, da, db *Domain, ta, tb *core.Thread) {
	t.Helper()
	g = &Group{RetainDeliveryLog: retain}
	da = &Domain{ID: 0, Name: "a", Sched: core.New(core.Config{Mode: core.RoundRobin, DomainID: 0})}
	db = &Domain{ID: 1, Name: "b", Sched: core.New(core.Config{Mode: core.RoundRobin, DomainID: 1})}
	ta = da.Sched.Register("ta")
	tb = db.Sched.Register("tb")
	da.Sched.GetTurn(ta)
	db.Sched.GetTurn(tb)
	return g, da, db, ta, tb
}

// TestSendBatchEqualsSingleSends is the batching determinism property: under
// the same schedule (one held turn on each side), SendBatch(k) followed by
// RecvBatch(k) produces exactly the delivery stamps of k single Sends
// followed by k single Recvs — consecutive message and boundary sequences,
// identical turn stamps. Fingerprints of batched and unbatched runs of the
// same program are therefore well-defined per configuration: batching
// changes how many scheduler slots the transfer occupies, never the
// per-message stamp expansion.
func TestSendBatchEqualsSingleSends(t *testing.T) {
	property := func(kSeed, capSeed uint8) bool {
		capacity := int(capSeed%8) + 1
		k := int(kSeed%uint8(capacity)) + 1 // 1..capacity

		vs := make([]any, k)
		for i := range vs {
			vs[i] = i
		}

		// Batched run.
		gb, da, db, sa, sb := testGroup(t, true)
		cb := gb.NewChannel("x", da, db, capacity)
		if n := cb.SendBatch(sa, vs); n != k {
			t.Fatalf("SendBatch sent %d, want %d", n, k)
		}
		dst := make([]any, k)
		if n, ok := cb.RecvBatch(sb, dst); n != k || !ok {
			t.Fatalf("RecvBatch got (%d, %v), want (%d, true)", n, ok, k)
		}

		// Single-op run under the same schedule shape: the turn is held
		// across all k operations, exactly as SendBatch holds it.
		gs, da, db, ua, ub := testGroup(t, true)
		cs := gs.NewChannel("x", da, db, capacity)
		for i := 0; i < k; i++ {
			if !cs.Send(ua, vs[i]) {
				t.Fatal("Send failed")
			}
		}
		for i := 0; i < k; i++ {
			v, ok := cs.Recv(ub)
			if !ok || v != dst[i] {
				t.Fatalf("Recv %d got (%v, %v), want (%v, true)", i, v, ok, dst[i])
			}
		}

		if !reflect.DeepEqual(gb.DeliveryLog(), gs.DeliveryLog()) {
			t.Logf("batched:  %v", gb.DeliveryLog())
			t.Logf("unbatched: %v", gs.DeliveryLog())
			return false
		}
		return gb.DeliveryHash() == gs.DeliveryHash()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCloseUnderBlockedBatch: a receiver blocked in RecvBatch waiting for a
// full batch must, when the sender closes instead, return the deterministic
// closed-remainder (everything the sender shipped before the close) and then
// report end-of-stream.
func TestCloseUnderBlockedBatch(t *testing.T) {
	g, da, db, ta, tb := testGroup(t, true)
	c := g.NewChannel("x", da, db, 4)

	if n := c.SendBatch(ta, []any{"a", "b"}); n != 2 {
		t.Fatalf("SendBatch sent %d, want 2", n)
	}

	got := make(chan []any, 1)
	go func() {
		// Wants 4, only 2 will ever arrive: blocks until the close.
		dst := make([]any, 4)
		n, ok := c.RecvBatch(tb, dst)
		if !ok {
			got <- nil
			return
		}
		got <- dst[:n]
	}()

	c.Close(ta)

	vs := <-got
	if !reflect.DeepEqual(vs, []any{"a", "b"}) {
		t.Fatalf("blocked RecvBatch returned %v, want the closed-remainder [a b]", vs)
	}
	if n, ok := c.RecvBatch(tb, make([]any, 4)); n != 0 || ok {
		t.Fatalf("drained closed channel returned (%d, %v), want (0, false)", n, ok)
	}
	if n := c.SendBatch(ta, []any{"c"}); n != 0 {
		t.Fatalf("SendBatch on closed channel sent %d, want 0", n)
	}
}

// TestDeliveryHashIncremental cross-checks the per-channel incremental fold
// against the materialized log: the running hash a channel maintains at
// receive time must equal HashDeliveries over its retained log, and the
// combined fingerprint must equal the (id, count, hash) fold over channels
// in id order — so dropping the retained log cannot change fingerprints.
func TestDeliveryHashIncremental(t *testing.T) {
	g, da, db, ta, tb := testGroup(t, true)
	c1 := g.NewChannel("x", da, db, 3)
	c2 := g.NewChannel("y", db, da, 2)

	c1.SendBatch(ta, []any{1, 2, 3})
	c1.RecvBatch(tb, make([]any, 3))
	c2.Send(tb, "r")
	c2.Recv(ta)
	c1.Send(ta, 4)
	c1.Recv(tb)

	want := uint64(logio.FNVOffset64)
	for _, c := range g.Channels() {
		log := c.deliveries()
		hash, nd := c.stamp()
		if int(nd) != len(log) {
			t.Fatalf("channel %s: delivered=%d, log has %d", c.Name(), nd, len(log))
		}
		if h := HashDeliveries(log); h != hash {
			t.Fatalf("channel %s: incremental hash %016x, recomputed %016x", c.Name(), hash, h)
		}
		want = logio.FNVFold64(want, c.ID())
		want = logio.FNVFold64(want, nd)
		want = logio.FNVFold64(want, hash)
	}
	if got := g.DeliveryHash(); got != want {
		t.Fatalf("fingerprint deliveries %016x, want %016x", got, want)
	}
}

// TestRetainOffMatchesRetainOn: the delivery log is a debug artifact; turning
// it off must not change the fingerprint, and DeliveryLog must report nil so
// callers cannot mistake "not retained" for "no deliveries".
func TestRetainOffMatchesRetainOn(t *testing.T) {
	run := func(retain bool) (uint64, []Delivery) {
		g, da, db, ta, tb := testGroup(t, retain)
		c := g.NewChannel("x", da, db, 4)
		c.SendBatch(ta, []any{1, 2, 3, 4})
		c.RecvBatch(tb, make([]any, 4))
		return g.DeliveryHash(), g.DeliveryLog()
	}
	fpOn, logOn := run(true)
	fpOff, logOff := run(false)
	if len(logOn) != 4 {
		t.Fatalf("retained log has %d deliveries, want 4", len(logOn))
	}
	if logOff != nil {
		t.Fatalf("unretained DeliveryLog = %v, want nil", logOff)
	}
	if fpOn != fpOff {
		t.Fatalf("retain flag changed fingerprint: %016x vs %016x", fpOn, fpOff)
	}
}

// TestChannelSteadyStateAllocs is the alloc-count regression test for the
// ring buffer: with the delivery log off, the steady-state per-message path
// (Send + Recv of an already-boxed value) must not allocate — the fixed ring
// is the message pool, deliveries fold into a running hash, and wake-ups are
// targeted signals. The pre-ring implementation allocated on both sides
// (slice append/shift on the buffer, a retained Delivery per message).
func TestChannelSteadyStateAllocs(t *testing.T) {
	g, da, db, ta, tb := testGroup(t, false)
	c := g.NewChannel("x", da, db, 1)
	v := any("payload")
	allocs := testing.AllocsPerRun(200, func() {
		if !c.Send(ta, v) {
			t.Fatal("Send failed")
		}
		if _, ok := c.Recv(tb); !ok {
			t.Fatal("Recv failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Send+Recv allocates %.1f objects per message, want 0", allocs)
	}
}

// TestChannelBatchAllocs extends the regression to the batched path: a
// SendBatch/RecvBatch round trip reuses the caller's slices and the ring, so
// it must not allocate either.
func TestChannelBatchAllocs(t *testing.T) {
	g, da, db, ta, tb := testGroup(t, false)
	c := g.NewChannel("x", da, db, 8)
	vs := make([]any, 8)
	for i := range vs {
		vs[i] = any(i)
	}
	dst := make([]any, 8)
	allocs := testing.AllocsPerRun(200, func() {
		if n := c.SendBatch(ta, vs); n != 8 {
			t.Fatalf("SendBatch sent %d", n)
		}
		if n, ok := c.RecvBatch(tb, dst); n != 8 || !ok {
			t.Fatalf("RecvBatch got (%d, %v)", n, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("batched round trip allocates %.1f objects, want 0", allocs)
	}
}

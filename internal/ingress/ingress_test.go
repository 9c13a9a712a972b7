package ingress

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// drainAll admits everything a gateway will deliver, returning the admitted
// events in order.
func drainAll(g *Gateway, batch int) []Event {
	var out []Event
	buf := make([]Event, batch)
	for {
		n, ok := g.Admit(buf)
		out = append(out, buf[:n]...)
		if !ok {
			return out
		}
	}
}

func TestGatewayStampsInOrder(t *testing.T) {
	g := NewGateway(Config{MaxBatch: 4})
	g.AddSource(FuncSource("src", func(p *Port) {
		for i := 0; i < 10; i++ {
			p.Push([]byte{byte(i)})
		}
	}))
	evs := drainAll(g, 4)
	if len(evs) != 10 {
		t.Fatalf("admitted %d events, want 10", len(evs))
	}
	for i, e := range evs {
		if e.Seq != int64(i+1) {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, i+1)
		}
		if i > 0 && e.Epoch < evs[i-1].Epoch {
			t.Errorf("event %d: epoch %d went backwards", i, e.Epoch)
		}
		if len(e.Data) != 1 || e.Data[0] != byte(i) {
			t.Errorf("event %d: payload %v out of order", i, e.Data)
		}
	}
	st := g.Stats()
	if st.Collected != 10 || st.Admitted != 10 || st.Shed != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestLogSaveLoadRoundTrip(t *testing.T) {
	l := &Log{}
	l.append(1, []Event{{Source: 0, Data: []byte("hello")}, {Source: 1, Data: nil}})
	l.append(3, []Event{{Source: 2, Data: []byte{0x00, 0xff, 0x0a, 0x20}}}) // binary payload
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Batches) != 2 || got.Events() != 3 {
		t.Fatalf("loaded %d batches / %d events", len(got.Batches), got.Events())
	}
	if got.Batches[0].Epoch != 1 || got.Batches[1].Epoch != 3 {
		t.Errorf("epochs %d %d", got.Batches[0].Epoch, got.Batches[1].Epoch)
	}
	if string(got.Batches[0].Events[0].Data) != "hello" {
		t.Errorf("payload 0: %q", got.Batches[0].Events[0].Data)
	}
	if got.Batches[0].Events[1].Data != nil {
		t.Errorf("empty payload round-tripped as %v", got.Batches[0].Events[1].Data)
	}
	if !bytes.Equal(got.Batches[1].Events[0].Data, []byte{0x00, 0xff, 0x0a, 0x20}) {
		t.Errorf("binary payload: %v", got.Batches[1].Events[0].Data)
	}
}

func TestLoadLogStrict(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "empty file"},
		{"bad header", "qithread-ingress v9\n", "bad header"},
		{"bad batch line", "qithread-ingress v1\nbatch 1\n", "line 2"},
		{"zero count", "qithread-ingress v1\nbatch 1 0\n", "line 2"},
		{"non-monotone epoch", "qithread-ingress v1\nbatch 2 1\n0 ff\nbatch 2 1\n0 ff\n", "line 4"},
		{"truncated batch", "qithread-ingress v1\nbatch 1 2\n0 ff\n", "line 3"},
		{"bad hex", "qithread-ingress v1\nbatch 1 1\n0 zz\n", "line 3"},
		{"bad source", "qithread-ingress v1\nbatch 1 1\n-2 ff\n", "line 3"},
		{"extra field", "qithread-ingress v1\nbatch 1 1\n0 ff trailing\n", "line 3"},
		// The count is a claim, not an allocation size: these two used to
		// size a slice from it (the first panicked in makeslice).
		{"hostile count", "qithread-ingress v1\nbatch 1 1000000000000000\n", "line 2"},
		{"hostile count 1e9", "qithread-ingress v1\nbatch 1 1000000000\n0 -\n", "line 3"},
		// What the binary codec cannot store, the text codec refuses too.
		{"source past int32", "qithread-ingress v1\nbatch 1 1\n1099511627776 -\n", "line 3: bad source id 1099511627776"},
	}
	for _, c := range cases {
		if _, err := LoadLog(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: LoadLog = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// TestReplayReproducesSheddingOnFixedLog: replaying one log through gateways
// with the same tight queue always sheds the same events, and the
// admitted/shed hash commitments match across replays.
func TestReplayReproducesSheddingOnFixedLog(t *testing.T) {
	// A recorded run whose snapshots overflow QueueCap=3 at MaxBatch=2.
	l := &Log{}
	l.append(1, []Event{
		{Source: 0, Data: []byte("a")}, {Source: 0, Data: []byte("b")},
		{Source: 1, Data: []byte("c")}, {Source: 1, Data: []byte("d")},
		{Source: 0, Data: []byte("e")},
	})
	l.append(2, []Event{{Source: 1, Data: []byte("f")}, {Source: 0, Data: []byte("g")}})

	run := func() ([]Event, uint64, uint64, Stats) {
		g := NewGateway(Config{MaxBatch: 2, QueueCap: 3, Replay: NewReplayer(l)})
		evs := drainAll(g, 2)
		a, s := g.Hashes()
		return evs, a, s, g.Stats()
	}
	evs0, a0, s0, st0 := run()
	if st0.Shed == 0 {
		t.Fatalf("overload scenario shed nothing: %+v", st0)
	}
	if int64(len(evs0)) != st0.Admitted {
		t.Fatalf("admitted %d events, stats say %d", len(evs0), st0.Admitted)
	}
	for i := 0; i < 10; i++ {
		evs, a, s, st := run()
		if a != a0 || s != s0 || st.Shed != st0.Shed || len(evs) != len(evs0) {
			t.Fatalf("replay %d diverged: admit %x/%x shed %x/%x shedN %d/%d",
				i, a, a0, s, s0, st.Shed, st0.Shed)
		}
		for j := range evs {
			if string(evs[j].Data) != string(evs0[j].Data) {
				t.Fatalf("replay %d event %d: %q vs %q", i, j, evs[j].Data, evs0[j].Data)
			}
		}
	}
}

// TestRecordThenReplayIdentical: a live run's log replayed through a fresh
// gateway admits the identical event sequence with identical hashes.
func TestRecordThenReplayIdentical(t *testing.T) {
	live := NewGateway(Config{MaxBatch: 3})
	for s := 0; s < 2; s++ {
		s := s
		live.AddSource(FuncSource("s", func(p *Port) {
			for i := 0; i < 8; i++ {
				time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
				p.Push([]byte{byte(s), byte(i)})
			}
		}))
	}
	liveEvs := drainAll(live, 3)
	la, ls := live.Hashes()

	rep := NewGateway(Config{MaxBatch: 3, Replay: NewReplayer(live.Log())})
	repEvs := drainAll(rep, 3)
	ra, rs := rep.Hashes()
	if ra != la || rs != ls || len(repEvs) != len(liveEvs) {
		t.Fatalf("replay diverged: %d/%d events, admit %x/%x", len(repEvs), len(liveEvs), ra, la)
	}
	for i := range repEvs {
		if repEvs[i].Epoch != liveEvs[i].Epoch || repEvs[i].Seq != liveEvs[i].Seq ||
			!bytes.Equal(repEvs[i].Data, liveEvs[i].Data) {
			t.Fatalf("event %d: %+v vs %+v", i, repEvs[i], liveEvs[i])
		}
	}
}

// TestCollectorBackpressure: a producer pushing past StageCap blocks until
// the gateway drains, and the block is counted.
func TestCollectorBackpressure(t *testing.T) {
	g := NewGateway(Config{StageCap: 4, MaxBatch: 8})
	reached := make(chan struct{})
	var done sync.WaitGroup
	done.Add(1)
	g.AddSource(FuncSource("fast", func(p *Port) {
		defer done.Done()
		for i := 0; i < 4; i++ {
			p.Push([]byte{byte(i)})
		}
		close(reached)    // stage is now full
		p.Push([]byte{4}) // must block until an Admit drains the stage
	}))
	<-reached
	// Give the producer time to park on the full stage before admitting.
	time.Sleep(2 * time.Millisecond)
	evs := drainAll(g, 8)
	done.Wait()
	if len(evs) != 5 {
		t.Fatalf("admitted %d events, want 5", len(evs))
	}
	if st := g.Stats(); st.PushBlocks == 0 || st.MaxStage != 4 {
		t.Errorf("expected backpressure in stats: %+v", st)
	}
}

// TestCollectorStageSizedFromLastSnapshot: a drained snapshot keeps its
// backing array to itself (the gateway may retain batches cut from it), and
// the stage that replaces it starts with the snapshot's length as capacity,
// so a steady epoch refills it in one allocation instead of regrowing from
// nil. An empty drain hands out nothing and leaves the sized stage alone.
func TestCollectorStageSizedFromLastSnapshot(t *testing.T) {
	c := newCollector(64)
	src := c.addSource()
	fill := func(n int, tag byte) {
		for i := 0; i < n; i++ {
			c.push(src, []byte{tag, byte(i)})
		}
	}
	fill(16, 'a')
	first, _ := c.drain(false)
	if len(first) != 16 {
		t.Fatalf("first snapshot has %d events, want 16", len(first))
	}
	if len(c.stage) != 0 || cap(c.stage) != 16 {
		t.Fatalf("stage after a 16-event drain: len %d cap %d, want 0 and 16", len(c.stage), cap(c.stage))
	}
	if empty, _ := c.drain(false); empty != nil || cap(c.stage) != 16 {
		t.Fatalf("empty drain returned %v and left stage capacity %d, want nil and 16", empty, cap(c.stage))
	}
	if n := testing.AllocsPerRun(20, func() {
		for i := 0; i < 16; i++ {
			c.push(src, nil)
		}
		c.drain(false)
	}); n != 1 {
		t.Errorf("a steady 16-event epoch costs %.0f stage allocations, want 1", n)
	}
	fill(16, 'b')
	for i, e := range first {
		if e.Data[0] != 'a' || e.Data[1] != byte(i) {
			t.Fatalf("retained snapshot event %d overwritten by the next epoch: %q", i, e.Data)
		}
	}
}

// TestAdmissionQueueSizedFromFirstSnapshot: the admission queue is made by
// the first non-empty snapshot, with room for it plus one slot's backlog, and
// QueueCap only ever clips that — gateways that admit a handful of events are
// built by the ten thousand (explored runs), and QueueCap's default is 1,024
// events of 56 bytes. A consumer that keeps up then never regrows it, and
// Init into caller-owned storage builds exactly what NewGateway builds.
func TestAdmissionQueueSizedFromFirstSnapshot(t *testing.T) {
	log := &Log{}
	for epoch := int64(1); epoch <= 8; epoch++ {
		log.Batches = append(log.Batches, Batch{Epoch: epoch, Events: []Event{{Data: []byte{1}}, {Data: []byte{2}}, {Data: []byte{3}}}})
	}
	var inPlace Gateway
	for _, tc := range []struct {
		name    string
		g       *Gateway
		wantCap int
	}{
		{"default-queue-cap", NewGateway(Config{MaxBatch: 4, Replay: NewReplayer(log)}), 3 + 4},
		{"clipped-by-queue-cap", NewGateway(Config{MaxBatch: 4, QueueCap: 5, Replay: NewReplayer(log)}), 5},
		{"init-in-place", inPlace.Init(Config{MaxBatch: 4, Replay: NewReplayer(log)}), 3 + 4},
	} {
		if tc.g.queue != nil {
			t.Fatalf("%s: the queue exists before the first snapshot (cap %d)", tc.name, cap(tc.g.queue))
		}
		buf := make([]Event, 4)
		n, ok := tc.g.Admit(buf)
		if n != 3 || !ok || cap(tc.g.queue) != tc.wantCap {
			t.Fatalf("%s: first slot admitted %d (ok %v) into a queue of capacity %d, want 3 into %d", tc.name, n, ok, cap(tc.g.queue), tc.wantCap)
		}
		if evs := drainAll(tc.g, 4); len(evs) != 21 || cap(tc.g.queue) != tc.wantCap {
			t.Fatalf("%s: drained %d more events leaving queue capacity %d, want 21 and %d", tc.name, len(evs), cap(tc.g.queue), tc.wantCap)
		}
	}
}

// TestReplayDivergencePanics: an admission slot past a still-unconsumed
// recorded batch means the replaying program took fewer slots than the
// recording — a loud failure, not a silent misalignment.
func TestReplayDivergencePanics(t *testing.T) {
	l := &Log{}
	l.append(5, []Event{{Source: 0, Data: []byte("x")}})
	r := NewReplayer(l)
	defer func() {
		if recover() == nil {
			t.Fatal("expected a replay-divergence panic")
		}
	}()
	r.next(6, 0) // recorded epoch 5 < current epoch 6: divergence
}

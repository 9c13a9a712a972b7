package ingress

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"qithread/internal/logio"
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
	l.AppendBatch(1, []Event{{Source: 0, Data: []byte("hello")}, {Source: 1, Data: nil}})
	l.AppendBatch(3, []Event{{Source: 2, Data: []byte{0x00, 0xff, 0x0a, 0x20}}}) // binary payload
	var buf bytes.Buffer
	if err := l.SaveBinary(&buf); err != nil {
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

// v2bLog frames hand-built batch payloads under the v2b header, so a test can
// write what no writer does.
func v2bLog(frames ...[]uint64) string {
	var buf bytes.Buffer
	buf.WriteString(logHeaderV2B + "\n")
	fw := logio.NewFrameWriter(&buf)
	for _, fields := range frames {
		var b []byte
		for _, v := range fields {
			b = binary.AppendUvarint(b, v)
		}
		fw.WriteFrame(b)
	}
	fw.Close()
	return buf.String()
}

func TestLoadLogStrict(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "empty file"},
		{"bad header", "qithread-ingress v9\n", "bad header"},
		// The hex-text format is refused by name, before its body is read.
		{"v1 header", "qithread-ingress v1\nbatch 1 1\n0 ff\n", `"qithread-ingress v1" logs are no longer readable`},
		{"v1 hostile count", "qithread-ingress v1\nbatch 1 1000000000000000\n", "re-record the run"},
		// Each frame is {epoch delta, count, count × {source, len, bytes}}.
		{"zero count", v2bLog([]uint64{1, 0}), "batch frame 0: bad event count 0"},
		{"zero epoch delta", v2bLog([]uint64{1, 1, 0, 0}, []uint64{0, 1, 0, 0}), "batch frame 1: epoch 1 out of order"},
		{"truncated batch", v2bLog([]uint64{1, 2, 0, 0}), "batch frame 0"},
		{"hostile count", v2bLog([]uint64{1, 1000000000000000, 0, 0}), "implausible event count"},
		{"most plausible count", v2bLog(mostPlausibleCount()), "batch frame 0: logio: corrupt record: bad varint"},
		{"source past int32", v2bLog([]uint64{1, 1, 1099511627776, 0}), "bad source id 1099511627776"},
		{"trailing bytes", v2bLog([]uint64{1, 1, 0, 0, 7}), "1 trailing bytes"},
		// One 10-byte frame and the terminator, then a second file's bytes.
		{"bytes after the terminator", v2bLog([]uint64{1, 1, 0, 0}) + "junk", "batch frame 1: logio: data after the terminator, at byte 11 past the header"},
	}
	for _, c := range cases {
		if _, err := LoadLog(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: LoadLog = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// TestSinkWithReplayPanics: a replaying gateway records nothing, so a Sink
// beside Replay would be handed no batch and close as an empty log. Init
// refuses the pair by name instead of ignoring the sink.
func TestSinkWithReplayPanics(t *testing.T) {
	l := &Log{Batches: []Batch{{Epoch: 1, Events: []Event{{Data: []byte("x")}}}}}
	bw, err := NewBinaryLogWriter(&bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "Config.Sink") || !strings.Contains(msg, "Config.Replay") {
			t.Fatalf("NewGateway with Sink and Replay: panic %q, want one naming both fields", msg)
		}
	}()
	NewGateway(Config{Replay: NewReplayer(l), Sink: bw})
}

// TestReplayReproducesSheddingOnFixedLog: replaying one log through gateways
// with the same tight queue always sheds the same events, and the
// admitted/shed hash commitments match across replays.
func TestReplayReproducesSheddingOnFixedLog(t *testing.T) {
	// A recorded run whose snapshots overflow QueueCap=3 at MaxBatch=2.
	l := &Log{}
	l.AppendBatch(1, []Event{
		{Source: 0, Data: []byte("a")}, {Source: 0, Data: []byte("b")},
		{Source: 1, Data: []byte("c")}, {Source: 1, Data: []byte("d")},
		{Source: 0, Data: []byte("e")},
	})
	l.AppendBatch(2, []Event{{Source: 1, Data: []byte("f")}, {Source: 0, Data: []byte("g")}})

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

// TestCollectorStageDoubleBuffered: the stage and the last snapshot swap
// arrays. A snapshot stays intact until the next drain — producers meanwhile
// fill the other array — and then becomes the stage, cleared so it keeps no
// payload alive. A steady epoch therefore costs no stage allocation, and an
// empty drain hands out nothing and leaves both arrays alone.
func TestCollectorStageDoubleBuffered(t *testing.T) {
	c := newCollector(64)
	src := c.addSource()
	fill := func(n int, tag byte) {
		for i := 0; i < n; i++ {
			c.push(src, []byte{tag, byte(i)})
		}
	}
	check := func(what string, evs []Event, tag byte) {
		t.Helper()
		if len(evs) != 16 {
			t.Fatalf("%s has %d events, want 16", what, len(evs))
		}
		for i, e := range evs {
			if len(e.Data) != 2 || e.Data[0] != tag || e.Data[1] != byte(i) {
				t.Fatalf("%s event %d is %q, want %q", what, i, e.Data, []byte{tag, byte(i)})
			}
		}
	}
	fill(16, 'a')
	first, _ := c.drain(false)
	fill(16, 'b')
	check("the first snapshot after the next epoch staged", first, 'a')
	second, _ := c.drain(false)
	check("the second snapshot", second, 'b')
	if cap(c.stage) < 16 || &c.stage[:1][0] != &first[0] {
		t.Fatalf("the stage after the second drain is not the first snapshot's array")
	}
	for i, e := range first {
		if e.Data != nil {
			t.Fatalf("the recycled stage still holds payload %d: %q", i, e.Data)
		}
	}
	if empty, _ := c.drain(false); empty != nil || &c.spare[0] != &second[0] {
		t.Fatalf("an empty drain returned %v or replaced the spare array", empty)
	}
	if n := testing.AllocsPerRun(20, func() {
		for i := 0; i < 16; i++ {
			c.push(src, nil)
		}
		c.drain(false)
	}); n != 0 {
		t.Errorf("a steady 16-event epoch costs %.0f stage allocations, want 0", n)
	}
}

// checkSink is a BatchSink that pushes the next epoch's events into the
// collector from inside Admit, as a producer racing the admission slot
// would, and checks that the snapshot it was handed does not change.
type checkSink struct {
	t    *testing.T
	port *Port
	next byte
}

func (s *checkSink) AppendBatch(epoch int64, snap []Event) error {
	before := slices.Clone(snap)
	for i := 0; i < 16; i++ {
		s.port.Push([]byte{s.next, byte(i)})
	}
	s.next++
	if !slices.EqualFunc(before, snap, func(a, b Event) bool { return a.Source == b.Source && bytes.Equal(a.Data, b.Data) }) {
		s.t.Errorf("epoch %d: the snapshot changed while Admit held it", epoch)
	}
	return nil
}

// TestSnapshotIntactDuringAdmit: every event Admit delivers is one staged
// for its epoch, although the next epoch is staged while the slot runs.
func TestSnapshotIntactDuringAdmit(t *testing.T) {
	sink := &checkSink{t: t, next: 1}
	g := NewGateway(Config{StageCap: 64, MaxBatch: 16, Sink: sink})
	sink.port = &Port{c: g.col, id: g.col.addSource()}
	sink.port.Push([]byte{0, 0})
	dst := make([]Event, 16)
	for epoch := 0; epoch < 8; epoch++ {
		want := 16
		if epoch == 0 {
			want = 1
		}
		if n, ok := g.Admit(dst); !ok || n != want {
			t.Fatalf("epoch %d admitted %d (ok %v), want %d", epoch+1, n, ok, want)
		}
		for i, e := range dst[:want] {
			if !bytes.Equal(e.Data, []byte{byte(epoch), byte(i)}) {
				t.Fatalf("epoch %d delivered event %d with payload %q", epoch+1, i, e.Data)
			}
		}
	}
}

// TestRetainedLogSurvivesLaterEpochs: a gateway without a Sink retains its
// input in a Log, and every recorded batch stays intact however many epochs
// reuse the collector's arrays after it.
func TestRetainedLogSurvivesLaterEpochs(t *testing.T) {
	g := NewGateway(Config{StageCap: 64, MaxBatch: 64})
	port := &Port{c: g.col, id: g.col.addSource()}
	dst := make([]Event, 64)
	const epochs = 50
	for epoch := 0; epoch < epochs; epoch++ {
		for i := 0; i <= epoch%16; i++ {
			port.Push([]byte{byte(epoch), byte(i)})
		}
		if n, ok := g.Admit(dst); !ok || n != epoch%16+1 {
			t.Fatalf("epoch %d admitted %d (ok %v), want %d", epoch+1, n, ok, epoch%16+1)
		}
	}
	l := g.Log()
	if len(l.Batches) != epochs {
		t.Fatalf("the log holds %d batches, want %d", len(l.Batches), epochs)
	}
	for epoch, b := range l.Batches {
		if b.Epoch != int64(epoch+1) || len(b.Events) != epoch%16+1 {
			t.Fatalf("batch %d: epoch %d with %d events", epoch, b.Epoch, len(b.Events))
		}
		for i, e := range b.Events {
			if !bytes.Equal(e.Data, []byte{byte(epoch), byte(i)}) {
				t.Fatalf("batch %d event %d overwritten by a later epoch: %q", epoch, i, e.Data)
			}
		}
	}
}

// TestAdmitAllocFree: a warm recording gateway — steady stage, a binary log
// sink with its compressor in use — allocates nothing per admission slot.
func TestAdmitAllocFree(t *testing.T) {
	bw, err := NewBinaryLogWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGateway(Config{StageCap: 64, MaxBatch: 16, Sink: bw})
	port := &Port{c: g.col, id: g.col.addSource()}
	payload := bytes.Repeat([]byte("event "), 10) // 16 of them pass logio.CompressMin
	dst := make([]Event, 16)
	epoch := func() {
		for i := 0; i < 16; i++ {
			port.Push(payload)
		}
		if n, ok := g.Admit(dst); n != 16 || !ok {
			t.Fatalf("admitted %d (ok %v), want 16", n, ok)
		}
	}
	epoch()
	if n := testing.AllocsPerRun(100, epoch); n != 0 {
		t.Fatalf("a steady admission slot recording to a binary log allocates %.1f times, want 0", n)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAdmit measures one admission slot of 16 events, staged through a
// port and recorded to a binary log on io.Discard, with the gateway warm. In
// steady the queue is empty between slots. In backlog a first snapshot of
// 240 events leaves 224 queued in a 256-slot queue, and each slot appends 16
// and delivers 16: every second slot finds the array full with its head
// advanced, and pushQueue compacts, copying the 224-event backlog to the
// front. The difference between the arms is what a ring buffer would save.
func BenchmarkAdmit(b *testing.B) {
	for _, arm := range []struct {
		name    string
		backlog int
	}{{"steady", 0}, {"backlog", 224}} {
		b.Run(arm.name, func(b *testing.B) {
			bw, err := NewBinaryLogWriter(io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			g := NewGateway(Config{StageCap: 256, MaxBatch: 16, Sink: bw})
			port := &Port{c: g.col, id: g.col.addSource()}
			payload := make([]byte, 16)
			dst := make([]Event, 16)
			slot := func(events int) {
				for i := 0; i < events; i++ {
					port.Push(payload)
				}
				if n, ok := g.Admit(dst); n != 16 || !ok {
					b.Fatalf("admitted %d (ok %v), want 16", n, ok)
				}
			}
			slot(16 + arm.backlog)
			slot(16) // warm: both stage arrays sized
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot(16)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(16*b.N), "ns/event")
			if st := g.Stats(); st.MaxQueue != 16+arm.backlog || st.Shed != 0 {
				b.Fatalf("queue high-water mark %d, shed %d: want %d and 0", st.MaxQueue, st.Shed, 16+arm.backlog)
			}
		})
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
	l.AppendBatch(5, []Event{{Source: 0, Data: []byte("x")}})
	r := NewReplayer(l)
	defer func() {
		if recover() == nil {
			t.Fatal("expected a replay-divergence panic")
		}
	}()
	r.next(6, 0) // recorded epoch 5 < current epoch 6: divergence
}

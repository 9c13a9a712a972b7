package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"qithread/internal/core"
	"qithread/internal/ingress"
	"qithread/internal/logio"
	"qithread/internal/policy"
)

// The headers Load refuses by name.
const (
	headerV1 = "qithread-checkpoint v1b"
	headerV2 = "qithread-checkpoint v2b"
)

// sampleRecord is a checkpoint with every section populated: two wait lists,
// a non-empty admission queue, counters set in both embedded Stats blocks.
// Empty slices are left nil, which is how gob decodes them.
func sampleRecord() *Record {
	return &Record{
		Epoch: 7,
		Domains: []core.SchedState{{
			DomainID: 1, WaitSeq: 9, NextTID: 3, NextObj: 5, Live: 3,
			VLastOp: 1200, VMakespan: 1300, TraceLen: 41, TraceHash: 0xfeedface,
			Stats: core.Stats{
				Ops: 41, Turns: 57, Waits: 6, Signals: 4, Broadcasts: 1,
				WokenBySignal: 5, WokenByTimeout: 1, Handoffs: 30, LeaseExtends: 11,
				MaxLiveThreads: 3, MaxWaiting: 2, MaxTimedWaiters: 1,
				// CaptureState leaves this nil, but it is a field of the
				// embedded block, so the format has to carry it.
				PolicyMetrics: []policy.Metrics{{Policy: "CSWhole", LeaseExtends: 9}, {Policy: "round-robin", Picks: 30}},
			},
			RunQ: []int{0},
			Threads: []core.ThreadState{
				{TID: 0, Clock: 10, VTime: 1200, Policy: policy.PerThread{Armed: true, CSDepth: 2}},
				{TID: 1, Clock: 8, VTime: 900, Policy: policy.PerThread{Wake: true}},
				{TID: 2, Clock: 8, VTime: 950},
			},
			Waits2: []core.WaitEntry{
				{Obj: 2, TIDs: []int{2, 1}, Seqs: []uint64{7, 8}},
			},
		}},
		Xseqs:    []int64{12},
		Channels: []ChannelState{{ID: 1, SendSeq: 12, Delivered: 12, Hash: 0x1234, Closed: true}},
		Gateways: []ingress.GatewayState{{
			Epoch: 7, Seq: 19,
			Queue:     []ingress.Event{{Source: 1, Data: []byte("req"), Epoch: 7, Seq: 19}},
			AdmitHash: 0xaaaa, ShedHash: 0xbbbb,
			Stats: ingress.Stats{Epochs: 7, Collected: 19, Admitted: 16, Shed: 2, MaxQueue: 4},
		}},
		App: []byte("worker accumulators"),
	}
}

func saved(t testing.TB, r *Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// framed builds a checkpoint file by hand: header line, the given frame
// payloads, terminator.
func framed(t testing.TB, hdr string, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(hdr + "\n")
	fw := logio.NewFrameWriter(&buf)
	for _, p := range payloads {
		if err := fw.WriteFrame(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gobOf(t testing.TB, r *Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := sampleRecord()
	file := saved(t, want)
	if !bytes.HasPrefix(file, []byte(header+"\n")) {
		t.Fatalf("file starts %q, want header %q", file[:len(header)+1], header)
	}
	got, err := Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the record:\n got  %#v\n want %#v", got, want)
	}
}

// TestCheckpointFormatPinned: testdata/v3b.ckpt is the checkpoint the parent
// of the change that moved ChannelState into this package wrote for the run
// of the root package's TestCheckpointCarriesBoundaryState — one domain, its
// boundary counter at 1, one closed pipe that never carried a message — and
// its SHA-256 was recorded there. gob names a struct type without its
// package, so the move must not change what such a file loads to. The decoded
// fields are compared, not re-encoded bytes: gob type ids are process-global,
// so a re-encoding depends on which test encoded first.
func TestCheckpointFormatPinned(t *testing.T) {
	const sha = "e2e0aefec0a99d722b49e5ee72548304b2222d89d46e764b514bc12b59fae3bd"
	file, err := os.ReadFile("testdata/v3b.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(file); hex.EncodeToString(sum[:]) != sha {
		t.Errorf("testdata/v3b.ckpt is not the file the parent build wrote (sha256 %x)", sum)
	}
	if !bytes.HasPrefix(file, []byte(header+"\n")) {
		t.Errorf("testdata/v3b.ckpt does not start with %q", header)
	}
	rec, err := Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	wantChans := []ChannelState{{ID: 1, Hash: logio.FNVOffset64, Closed: true}}
	if !reflect.DeepEqual(rec.Channels, wantChans) {
		t.Errorf("channel states %+v, want %+v", rec.Channels, wantChans)
	}
	if !reflect.DeepEqual(rec.Xseqs, []int64{1}) || rec.Epoch != 0 || rec.Gateways != nil || rec.App != nil {
		t.Errorf("loaded epoch %d, xseqs %v, %d gateways, app %q; want 0, [1], none, none", rec.Epoch, rec.Xseqs, len(rec.Gateways), rec.App)
	}
	if len(rec.Domains) != 1 {
		t.Fatalf("loaded %d domain snapshots, want 1", len(rec.Domains))
	}
	if d := rec.Domains[0]; d.DomainID != 0 || d.TraceLen != 4 || d.TraceHash != 0x9995b082fbb3b164 || len(d.Threads) != 1 {
		t.Errorf("domain snapshot: id %d, trace %d events hashing to %x, %d threads; want 0, 4, 9995b082fbb3b164, 1",
			d.DomainID, d.TraceLen, d.TraceHash, len(d.Threads))
	}
}

// distinctCounters sets every numeric field of *stats (a struct pointer) to
// its own non-zero value and fails on a field that is neither numeric nor
// named in skip — a new kind of field needs a decision about checkpoints.
func distinctCounters(t *testing.T, stats any, skip string) {
	t.Helper()
	v := reflect.ValueOf(stats).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case f.CanInt():
			f.SetInt(int64(100 + i))
		case f.CanUint():
			f.SetUint(uint64(100 + i))
		case name != skip:
			t.Fatalf("%s.%s is a %s, not a counter; decide whether a checkpoint carries it", v.Type(), name, f.Kind())
		}
	}
}

// throughFile saves and reloads one record.
func throughFile(t *testing.T, r *Record) *Record {
	t.Helper()
	got, err := Load(bytes.NewReader(saved(t, r)))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSchedStateCarriesEveryCounter: a checkpoint carries every counter of
// core.Stats, the file's counters block. Each numeric field gets a distinct
// value; restoring them into a scheduler puts them where the scheduler counts
// (its core.Counters), CaptureState must read every one back, the snapshot
// goes through the file format, and a second scheduler of the same structure
// restored from it must report them all from Stats(). PolicyMetrics is the
// one exclusion: the stack's decision counters are diagnostics and a resumed
// run counts its own. (While SchedState listed its counters field by field,
// MaxWaiting was never added to the list and a checkpoint dropped it.) The
// thread's policy state takes the same trip: every lease a policy can leave
// on a thread is standing at the capture and stands again after the restore.
func TestSchedStateCarriesEveryCounter(t *testing.T) {
	var want core.Stats
	distinctCounters(t, &want, "PolicyMetrics")
	wantLeases := policy.PerThread{Armed: true, Wake: true, CSDepth: 2}

	// Schedulers of identical structure (one registered thread holding the
	// turn, nothing recorded): what a resuming program's setup phase rebuilds
	// before RestoreState.
	solo := func() (*core.Scheduler, *core.Thread) {
		s := core.New(core.Config{Policies: policy.AllPolicies, Record: true, SuspendRecording: true})
		s.HostThreads()
		th := s.Register("main")
		s.GetTurn(th)
		return s, th
	}
	src, srcT := solo()
	src.Stack().OnArm(srcT)
	src.Stack().OnSignal(srcT, 1)
	src.Stack().OnAcquire(srcT)
	src.Stack().OnAcquire(srcT)
	st, err := src.CaptureState(srcT)
	if err != nil {
		t.Fatal(err)
	}
	st.Stats = want
	if err := src.RestoreState(srcT, st); err != nil {
		t.Fatal(err)
	}
	if st, err = src.CaptureState(srcT); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Stats, want) {
		t.Fatalf("CaptureState dropped a counter:\n got  %#v\n want %#v", st.Stats, want)
	}

	rec := throughFile(t, &Record{Domains: []core.SchedState{*st}, Xseqs: []int64{0}})
	dst, dstT := solo()
	if err := dst.RestoreState(dstT, &rec.Domains[0]); err != nil {
		t.Fatal(err)
	}
	// The scheduler reports its counters as core.Counters, the fields of the
	// file's block but PolicyMetrics: compared by name.
	got := reflect.ValueOf(dst.Stats().Counters)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if w := reflect.ValueOf(want).FieldByName(name); !w.IsValid() || !w.Equal(got.Field(i)) {
			t.Errorf("counter %s after checkpoint and resume: %v, want %v", name, got.Field(i), w)
		}
	}
	if got := *dstT.PolicyState(); got != wantLeases {
		t.Fatalf("policy state after checkpoint and resume: %+v, want %+v", got, wantLeases)
	}
}

// TestGatewayStateCarriesEveryCounter is the gateway half. PushBlocks and
// MaxStage are excluded from the final comparison: the collector counts them
// in real time on the producer side, Gateway.Stats merges them in from there,
// and they are diagnostics of one process's timing, not state a resumed run
// continues — the restored gateway's fresh collector has counted nothing.
func TestGatewayStateCarriesEveryCounter(t *testing.T) {
	var want ingress.Stats
	distinctCounters(t, &want, "")

	src := ingress.NewGateway(ingress.Config{})
	if err := src.RestoreState(&ingress.GatewayState{Stats: want}); err != nil {
		t.Fatal(err)
	}
	st := src.CaptureState()
	if st.Stats != want {
		t.Fatalf("CaptureState dropped a counter:\n got  %#v\n want %#v", st.Stats, want)
	}

	rec := throughFile(t, &Record{Gateways: []ingress.GatewayState{*st}})
	dst := ingress.NewGateway(ingress.Config{})
	if err := dst.RestoreState(&rec.Gateways[0]); err != nil {
		t.Fatal(err)
	}
	want.PushBlocks, want.MaxStage = 0, 0
	if got := dst.Stats(); got != want {
		t.Fatalf("counters after checkpoint and resume:\n got  %#v\n want %#v", got, want)
	}
}

// TestLoadErrors: every way a checkpoint file can be wrong is an error that
// says what is wrong — never a Record with some of its state missing.
func TestLoadErrors(t *testing.T) {
	good := saved(t, sampleRecord())
	body := good[len(header)+1:]

	crcDamaged := bytes.Clone(good)
	crcDamaged[len(crcDamaged)-3] ^= 0x40 // inside the frame's CRC trailer

	payloadDamaged := bytes.Clone(good)
	payloadDamaged[len(header)+1+8] ^= 0x01 // inside the stored payload

	lopsided := sampleRecord()
	lopsided.Xseqs = append(lopsided.Xseqs, 3)

	var oversized bytes.Buffer
	oversized.WriteString(header + "\n")
	oversized.Write(binary.AppendUvarint(nil, logio.MaxFrame+1))

	for _, c := range []struct {
		name string
		file []byte
		want string // substring of the error
	}{
		{"empty file", nil, "empty file"},
		{"not a checkpoint", []byte("qithread-schedule v3b\n"), `bad header "qithread-schedule v3b"`},
		{"header without newline and nothing else", []byte(header), "truncated"},
		{"v1b", append([]byte(headerV1+"\n"), body...), `"qithread-checkpoint v1b" checkpoints are no longer readable`},
		{"v1b names the readable version", append([]byte(headerV1+"\n"), body...), `this build reads "qithread-checkpoint v3b" — re-record the run`},
		{"v2b", append([]byte(headerV2+"\n"), body...), `"qithread-checkpoint v2b" checkpoints are no longer readable`},
		{"v2b names the readable version", append([]byte(headerV2+"\n"), body...), `this build reads "qithread-checkpoint v3b" — re-record the run`},
		{"no record", framed(t, header), "holds no record"},
		{"truncated before the terminator", good[:len(good)-1], "truncated"},
		{"truncated inside the frame", good[:len(good)/2], "truncated"},
		{"truncated after the header", good[:len(header)+1], "truncated"},
		{"CRC damaged", crcDamaged, "checksum mismatch"},
		{"payload damaged", payloadDamaged, "checksum mismatch"},
		{"trailing frame", framed(t, header, gobOf(t, sampleRecord()), []byte("extra")), "trailing frame"},
		{"payload is not gob", framed(t, header, []byte("not a gob stream")), "decoding checkpoint"},
		{"Xseqs != Domains", saved(t, lopsided), "2 xseq counters for 1 domains"},
		{"frame length past MaxFrame", oversized.Bytes(), "exceeds limit"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec, err, alloc := loadMeasured(c.file)
			if err == nil {
				t.Fatalf("loaded %+v, want an error containing %q", rec, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
			if alloc > logio.MaxFrame {
				t.Fatalf("Load allocated %d bytes on a %d-byte file (limit %d)", alloc, len(c.file), logio.MaxFrame)
			}
		})
	}
}

// loadMeasured is Load plus the bytes it allocated.
func loadMeasured(file []byte) (*Record, error, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, err := Load(bytes.NewReader(file))
	runtime.ReadMemStats(&after)
	return rec, err, after.TotalAlloc - before.TotalAlloc
}

// FuzzLoad: Load never panics; what it accepts is self-consistent and
// survives a second trip through the format; and a small file cannot make it
// allocate past logio.MaxFrame — a hostile frame length is refused before the
// buffer is made, gob refuses slice and string counts the remaining input
// cannot back, and DEFLATE expands at most 1032x, so for the up-to-4-KiB
// inputs checked here (every seed is smaller) the frame, its decompression
// and the decoded record stay under the limit together. Each input is tried
// twice: as a file, and as the record payload of an otherwise well-formed
// file — a mutated file almost never gets past its frame's CRC, so the second
// form is the one that reaches the gob decoder with hostile bytes.
func FuzzLoad(f *testing.F) {
	good := saved(f, sampleRecord())
	f.Add(good)
	f.Add(saved(f, &Record{}))
	f.Add(append([]byte(headerV1+"\n"), good[len(header)+1:]...))
	f.Add(framed(f, header))
	f.Add(framed(f, header, gobOf(f, sampleRecord()), []byte("extra")))
	f.Add(append([]byte(header+"\n"), binary.AppendUvarint(nil, logio.MaxFrame+1)...))
	f.Add(good[:len(good)/2])
	f.Add(gobOf(f, sampleRecord()))
	f.Add([]byte("not a gob stream"))
	f.Add(append([]byte(headerV2+"\n"), good[len(header)+1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		files := [][]byte{data}
		if len(data) > 0 {
			files = append(files, framed(t, header, data))
		}
		for _, file := range files {
			rec, err, alloc := loadMeasured(file)
			if len(file) <= 4096 && alloc > logio.MaxFrame {
				t.Fatalf("Load allocated %d bytes on a %d-byte input (limit %d)", alloc, len(file), logio.MaxFrame)
			}
			if err != nil {
				continue
			}
			if len(rec.Xseqs) != len(rec.Domains) {
				t.Fatalf("loaded %d xseq counters for %d domains", len(rec.Xseqs), len(rec.Domains))
			}
			again, err := Load(bytes.NewReader(saved(t, rec)))
			if err != nil {
				t.Fatalf("re-saved record does not load: %v", err)
			}
			if !reflect.DeepEqual(again, rec) {
				t.Fatalf("record changed on a second round trip:\n first  %#v\n second %#v", rec, again)
			}
		}
	})
}

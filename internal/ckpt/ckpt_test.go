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
	headerV3 = "qithread-checkpoint v3b"
)

// sampleRecord is a checkpoint with every section populated: two wait lists,
// a non-empty admission queue, counters set in the scheduler's and the
// gateway's embedded blocks. Empty slices are left nil, which is how gob
// decodes them.
func sampleRecord() *Record {
	return &Record{
		Domain: core.SchedState{
			DomainID: 1, WaitSeq: 9, NextTID: 3, NextObj: 5, Holder: 0,
			VLastOp: 1200, VMakespan: 1300, TraceLen: 41, TraceHash: 0xfeedface,
			Counters: core.Counters{
				Ops: 41, Turns: 57, Waits: 6, Signals: 4, Broadcasts: 1,
				WokenBySignal: 5, WokenByTimeout: 1, Handoffs: 30, LeaseExtends: 11,
				MaxLiveThreads: 3, MaxWaiting: 2, MaxTimedWaiters: 1,
			},
			Threads: []core.ThreadState{
				{TID: 0, Clock: 10, VTime: 1200, Policy: policy.PerThread{Armed: true, CSDepth: 2}},
				{TID: 1, Clock: 8, VTime: 900, Policy: policy.PerThread{Wake: true}},
				{TID: 2, Clock: 8, VTime: 950},
			},
			WaitLists: []core.WaitEntry{
				{Obj: 2, Waiters: []core.Waiter{{TID: 2, Seq: 7}, {TID: 1, Seq: 8}}},
				{Obj: 4, Waiters: []core.Waiter{{TID: 0, Seq: 3}}},
			},
		},
		Xseq:     12,
		Channels: []ChannelState{{ID: 1, Messages: 12, Hash: 0x1234, Closed: true}},
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

// TestCheckpointFormatPinned: testdata/v4b.ckpt is the checkpoint the build
// that introduced the v4b layout wrote for the run of the root package's
// TestCheckpointCarriesBoundaryState — one domain, its boundary counter at 1,
// one closed pipe that never carried a message — and its SHA-256 was
// recorded there; it must load to that run's state. The decoded fields are
// compared, not re-encoded bytes: gob type ids are process-global, so a
// re-encoding depends on which test encoded first. testdata/v3b.ckpt is the
// same run's checkpoint in the previous layout, which Load refuses by name.
func TestCheckpointFormatPinned(t *testing.T) {
	pinned := func(name, header, sha string) []byte {
		t.Helper()
		file, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(file); hex.EncodeToString(sum[:]) != sha {
			t.Errorf("testdata/%s is not the file its build wrote (sha256 %x)", name, sum)
		}
		if !bytes.HasPrefix(file, []byte(header+"\n")) {
			t.Errorf("testdata/%s does not start with %q", name, header)
		}
		return file
	}
	file := pinned("v4b.ckpt", header, "0d15908bd53351ce1d1f39739c6958cad539a591aaaeede88c17411d309d59d3")
	rec, err := Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	wantChans := []ChannelState{{ID: 1, Hash: logio.FNVOffset64, Closed: true}}
	if !reflect.DeepEqual(rec.Channels, wantChans) {
		t.Errorf("channel states %+v, want %+v", rec.Channels, wantChans)
	}
	if rec.Xseq != 1 || rec.Epoch() != 0 || rec.Gateways != nil || rec.App != nil {
		t.Errorf("loaded epoch %d, xseq %d, %d gateways, app %q; want 0, 1, none, none", rec.Epoch(), rec.Xseq, len(rec.Gateways), rec.App)
	}
	if d := rec.Domain; d.DomainID != 0 || d.Holder != 0 || d.TraceLen != 4 || d.TraceHash != 0x9995b082fbb3b164 || len(d.Threads) != 1 || d.WaitLists != nil {
		t.Errorf("domain snapshot: id %d, holder T%d, trace %d events hashing to %x, %d threads, %d wait lists; want 0, T0, 4, 9995b082fbb3b164, 1, none",
			d.DomainID, d.Holder, d.TraceLen, d.TraceHash, len(d.Threads), len(d.WaitLists))
	}

	v3 := pinned("v3b.ckpt", headerV3, "e2e0aefec0a99d722b49e5ee72548304b2222d89d46e764b514bc12b59fae3bd")
	if _, err := Load(bytes.NewReader(v3)); err == nil || !strings.Contains(err.Error(), `"qithread-checkpoint v3b" checkpoints are no longer readable`) {
		t.Errorf("Load(testdata/v3b.ckpt) = %v, want the refusal naming its header", err)
	}
}

// distinctCounters sets every field of *stats (a struct pointer) to its own
// non-zero value and fails on a field that is not numeric — a new kind of
// field needs a decision about checkpoints.
func distinctCounters(t *testing.T, stats any) {
	t.Helper()
	v := reflect.ValueOf(stats).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); {
		case f.CanInt():
			f.SetInt(int64(100 + i))
		case f.CanUint():
			f.SetUint(uint64(100 + i))
		default:
			t.Fatalf("%s.%s is a %s, not a counter; decide whether a checkpoint carries it", v.Type(), v.Type().Field(i).Name, f.Kind())
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
// core.Counters, which SchedState embeds. Each field gets a distinct value;
// restoring them into a scheduler puts them where the scheduler counts,
// CaptureState must read every one back, the snapshot goes through the file
// format, and a second scheduler of the same structure restored from it must
// report them all from Stats(). (While SchedState listed its counters field
// by field, MaxWaiting was never added to the list and a checkpoint dropped
// it.) The thread's policy state takes the same trip: every lease a policy
// can leave on a thread is standing at the capture and stands again after
// the restore.
func TestSchedStateCarriesEveryCounter(t *testing.T) {
	var want core.Counters
	distinctCounters(t, &want)
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
	st.Counters = want
	if err := src.RestoreState(srcT, st); err != nil {
		t.Fatal(err)
	}
	if st, err = src.CaptureState(srcT); err != nil {
		t.Fatal(err)
	}
	if st.Counters != want {
		t.Fatalf("CaptureState dropped a counter:\n got  %#v\n want %#v", st.Counters, want)
	}

	rec := throughFile(t, &Record{Domain: *st})
	dst, dstT := solo()
	if err := dst.RestoreState(dstT, &rec.Domain); err != nil {
		t.Fatal(err)
	}
	if got := dst.Stats().Counters; got != want {
		t.Errorf("counters after checkpoint and resume:\n got  %#v\n want %#v", got, want)
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
	distinctCounters(t, &want)

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
		{"v1b names the readable version", append([]byte(headerV1+"\n"), body...), `this build reads "qithread-checkpoint v4b" — re-record the run`},
		{"v2b", append([]byte(headerV2+"\n"), body...), `"qithread-checkpoint v2b" checkpoints are no longer readable`},
		{"v2b names the readable version", append([]byte(headerV2+"\n"), body...), `this build reads "qithread-checkpoint v4b" — re-record the run`},
		{"v3b", append([]byte(headerV3+"\n"), body...), `"qithread-checkpoint v3b" checkpoints are no longer readable`},
		{"v3b names the readable version", append([]byte(headerV3+"\n"), body...), `this build reads "qithread-checkpoint v4b" — re-record the run`},
		{"no record", framed(t, header), "holds no record"},
		{"truncated before the terminator", good[:len(good)-1], "truncated"},
		{"truncated inside the frame", good[:len(good)/2], "truncated"},
		{"truncated after the header", good[:len(header)+1], "truncated"},
		{"CRC damaged", crcDamaged, "checksum mismatch"},
		{"payload damaged", payloadDamaged, "checksum mismatch"},
		{"trailing frame", framed(t, header, gobOf(t, sampleRecord()), []byte("extra")), "trailing frame"},
		{"payload is not gob", framed(t, header, []byte("not a gob stream")), "decoding checkpoint"},
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

// FuzzLoad: Load never panics; what it accepts survives a second trip
// through the format; and a small file cannot make it
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

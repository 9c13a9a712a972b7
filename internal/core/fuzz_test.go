package core

import (
	"testing"

	"qithread/internal/policy"
)

// FuzzScheduleDeterminism drives the scheduler with script programs decoded
// from fuzzer-generated bytes: each (thread, kind, argument) triple becomes
// one scriptOp of one of three threads (readOps). The invariant under test is
// the central one of the system: the same program yields the same trace on
// two consecutive runs, under both queue-based and clock-based policies,
// and never corrupts the scheduler (a panic fails the fuzz run).
func FuzzScheduleDeterminism(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 2, 2, 2, 3, 0, 3, 1})
	f.Add([]byte{5, 2, 9, 1, 1, 1, 0, 2, 2, 3, 3, 3, 2, 0, 0, 4, 1, 7})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := make([][]scriptOp, 3)
		readOps(prog, data)
		for _, cfg := range []Config{
			{Mode: policy.RoundRobin, Policies: policy.BoostBlocked, Record: true},
			{Mode: policy.LogicalClock, Record: true},
		} {
			if !tracesEqual(runScriptOn(New(cfg), prog), runScriptOn(New(cfg), prog)) {
				t.Fatalf("nondeterministic trace under %v", cfg.Mode)
			}
		}
	})
}

// FuzzModelDifferential is the differential test of modeldiff_test.go on
// programs decoded from fuzzer bytes (decodeModelCase): the configuration,
// the lease switch, the chooser's answers and each thread's operations all
// come from the input, and the scheduler must agree with the model after
// every primitive. The seeds are quick-generator scripts (encodeModelCase),
// one per configuration, that between them reach the idle time jump, a
// destroyed object with waiters, both kinds of chooser consultation and the
// solo lease.
func FuzzModelDifferential(f *testing.F) {
	for _, c := range []struct {
		sc      script
		cfg     byte
		answers uint64 // answersOf's seed; 0: no chooser
	}{
		{script{Seed: 1, NThreads: 0, NOps: 9}, 0, 0},
		{script{Seed: 0x3188ebe1e0cd539c, NThreads: 3, NOps: 9}, 1, 44},
		{script{Seed: 42, NThreads: 2, NOps: 7}, 2, 2},
		{script{Seed: 7, NThreads: 1, NOps: 5}, 3 | 0x08, 3},
		{script{Seed: 0xdeadbeef, NThreads: 3, NOps: 10}, 4, 4},
	} {
		var seq []int
		if c.answers != 0 {
			seq = answersOf(c.answers)
		}
		f.Add(encodeModelCase(c.sc.program(), c.cfg, seq))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, cfg, seq := decodeModelCase(data)
		if err := runLockstep(prog, cfg, seq, new(coverage)); err != nil {
			t.Fatalf("%v/%v nolease=%v, answers %v:\n%v", cfg.Mode, cfg.Policies, cfg.NoLease, seq, err)
		}
	})
}

// decodeModelCase reads a differential case. Byte 0 is the configuration:
// its low three bits mod 5 index modelConfigs, bit 0x08 sets NoLease. The
// low three bits of byte 1 mod 5 are the thread count less two, its high
// five how many chooser answers follow (a chooser is installed when there
// are any), each answer byte mod 8 an answer in -1..6. The bytes after them
// are the threads' operations (readOps).
func decodeModelCase(data []byte) (prog [][]scriptOp, cfg Config, seq []int) {
	data = append(data[:len(data):len(data)], 0, 0)
	cfg = modelConfigs[int(data[0]&7)%len(modelConfigs)]
	cfg.NoLease = data[0]&0x08 != 0
	prog = make([][]scriptOp, int(data[1]&7)%5+2)
	k := min(int(data[1]>>3), len(data)-2)
	for _, b := range data[2 : 2+k] {
		seq = append(seq, int(b%8)-1)
	}
	readOps(prog, data[2+k:])
	return prog, cfg, seq
}

// readOps reads data as (thread, kind, arg) triples, up to 96 of them, and
// appends each as one operation of thread number thread mod len(prog).
func readOps(prog [][]scriptOp, data []byte) {
	for i := 0; i+2 < len(data) && i < 3*96; i += 3 {
		t := int(data[i]) % len(prog)
		prog[t] = append(prog[t], scriptOp{kind: data[i+1], arg: data[i+2]})
	}
}

// encodeModelCase is the input decodeModelCase reads as (prog, cfg, seq).
func encodeModelCase(prog [][]scriptOp, cfg byte, seq []int) []byte {
	data := []byte{cfg, byte(len(prog)-2) | byte(len(seq))<<3}
	for _, a := range seq {
		data = append(data, byte(a+1))
	}
	for t, ops := range prog {
		for _, op := range ops {
			data = append(data, byte(t), op.kind, op.arg)
		}
	}
	return data
}

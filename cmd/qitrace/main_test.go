package main

import (
	"testing"

	"qithread/internal/harness"
	"qithread/internal/programs"
	"qithread/internal/trace"
	"qithread/internal/workload"
)

// TestCompareModes: -compare splits at the comma and resolves both sides
// (the Sscanf scanset it used to be parsed with does not exist in Go's fmt,
// so every -compare invocation exited 1).
func TestCompareModes(t *testing.T) {
	m1, m2, err := compareModes("qithread,logical-clock")
	if err != nil || m1.Name != "all-policies" || m2.Name != "logical-clock" {
		t.Fatalf("qithread,logical-clock resolved to %q, %q, %v", m1.Name, m2.Name, err)
	}
	for _, bad := range []string{"", "qithread", "qithread,", ",kendo", "qithread,bogus", "a,b,c"} {
		if _, _, err := compareModes(bad); err == nil {
			t.Errorf("-compare %q accepted", bad)
		}
	}
}

// TestFormatPinned pins the default listing of `qitrace -program
// pbzip2_compress`: trace.Format's first 40 rows, each led by the event's
// position in a four-wide column. An event does not carry its position, so
// the column is Format's own.
func TestFormatPinned(t *testing.T) {
	spec, ok := programs.Find("pbzip2_compress")
	m, okm := harness.ModeByName("qithread")
	if !ok || !okm {
		t.Fatal("pbzip2_compress or the qithread mode is gone")
	}
	tr, _, _ := record(spec, m.Cfg, workload.Params{Scale: 0.05, InputSeed: 7})
	if got := trace.Format(tr, 40); got != pbzip2Listing {
		t.Fatalf("qitrace -program pbzip2_compress lists\n%s\nwant\n%s", got, pbzip2Listing)
	}
}

const pbzip2Listing = `   0 T0 mutex_init(#1)
   1 T0 cond_init(#2)
   2 T0 cond_init(#3)
   3 T0 create(#4)
   4 T0 create(#5)
   5 T0 create(#6)
   6 T0 create(#7)
   7 T0 create(#8)
   8 T0 create(#9)
   9 T0 create(#10)
  10 T0 create(#11)
  11 T0 create(#12)
  12 T0 create(#13)
  13 T0 create(#14)
  14 T0 create(#15)
  15 T0 create(#16)
  16 T0 create(#17)
  17 T0 create(#18)
  18 T0 create(#19)
  19 T1 thread_begin
  20 T2 thread_begin
  21 T3 thread_begin
  22 T4 thread_begin
  23 T5 thread_begin
  24 T6 thread_begin
  25 T7 thread_begin
  26 T8 thread_begin
  27 T9 thread_begin
  28 T10 thread_begin
  29 T11 thread_begin
  30 T12 thread_begin
  31 T13 thread_begin
  32 T14 thread_begin
  33 T15 thread_begin
  34 T16 thread_begin
  35 T0 lock(#1)
  36 T0 unlock(#1)
  37 T1 lock(#1)
  38 T1 unlock(#1)
  39 T2 lock(#1)
`

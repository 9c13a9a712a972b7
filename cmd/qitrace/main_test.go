package main

import "testing"

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

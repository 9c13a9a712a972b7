package policy

import "testing"

// TestCanonicalStackMatchesFromSet verifies the bundled canonical
// constructor produces the same stack shape as the generic FromSet path.
func TestCanonicalStackMatchesFromSet(t *testing.T) {
	for set := Set(0); set <= AllPolicies; set++ {
		a := CanonicalStack(set)
		b := FromSet(RoundRobin(), set)
		if a.String() != b.String() {
			t.Fatalf("set %b: CanonicalStack %q != FromSet %q", set, a, b)
		}
	}
}

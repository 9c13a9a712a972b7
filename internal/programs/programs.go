// Package programs is the catalog of the 108 evaluation programs of the
// QiThread paper (Section 5, Figure 8): 14 SPLASH-2x benchmarks, 10 NPB
// benchmarks, 15 PARSEC benchmarks, 14 Phoenix programs (7 algorithms × 2
// implementations), 8 real-world programs, 14 ImageMagick utilities, and 33
// parallel STL algorithms.
//
// Each program is modeled by the synchronization-idiom engine from
// internal/workload that matches its real structure, parameterized with
// thread counts, phase structure, and compute grains chosen to mirror the
// published workloads. The '+' (soft barrier) and '*' (performance critical
// section) annotations of Figure 8 are carried as Hints and wired into the
// engines, so the "Parrot w/o PCS", "Parrot w/ PCS" and QiThread
// configurations of the paper can all be reproduced.
package programs

import (
	"fmt"

	"qithread/internal/workload"
)

// Spec describes one catalog program.
type Spec struct {
	// Name is the Figure 8 label.
	Name string
	// Suite is one of "splash2x", "npb", "parsec", "phoenix", "realworld",
	// "imagemagick", "stl".
	Suite string
	// Threads is the paper-default worker thread count.
	Threads int
	// Hints records which Parrot annotations the paper applied.
	Hints workload.Hints
	// Build instantiates the program for one execution.
	Build func(p workload.Params) workload.App
}

var all []Spec
var byName map[string]int

func register(s Spec) {
	if byName == nil {
		byName = make(map[string]int)
	}
	if _, dup := byName[s.Name]; dup {
		panic("programs: duplicate " + s.Name)
	}
	byName[s.Name] = len(all)
	all = append(all, s)
}

// All returns every catalog program in Figure 8 order.
func All() []Spec {
	out := make([]Spec, len(all))
	copy(out, all)
	return out
}

// BySuite returns the programs of one suite in Figure 8 order.
func BySuite(suite string) []Spec {
	var out []Spec
	for _, s := range all {
		if s.Suite == suite {
			out = append(out, s)
		}
	}
	return out
}

// Find returns the program with the given Figure 8 label.
func Find(name string) (Spec, bool) {
	i, ok := byName[name]
	if !ok {
		return Spec{}, false
	}
	return all[i], true
}

func init() {
	registerSplash()
	registerNPB()
	registerParsec()
	registerPhoenix()
	registerRealWorld()
	registerImageMagick()
	registerSTL()
	if len(all) != 108 {
		panic(fmt.Sprintf("programs: catalog has %d programs, want 108", len(all)))
	}
}

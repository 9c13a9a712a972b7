// Package spin provides the deterministic synthetic compute kernel used by
// the workload catalog. Real benchmark computation (compressing a block,
// rendering a tile, reducing a key range) is modeled as a calibrated CPU-bound
// spin whose result depends only on its inputs, so program output is
// deterministic and comparable across scheduling modes, while the spin
// consumes real CPU time so wall-clock measurements exercise the schedulers
// the same way real computation would. The spin is the modeled program's
// work only: nothing in the runtime busy-waits, a thread waiting for the turn
// parks (internal/core).
package spin

// Unit is the number of xorshift steps in one work unit. One unit costs a few
// nanoseconds on commodity hardware; workloads express compute grains in
// units so thread imbalance is easy to parameterize.
const Unit = 16

// Work performs n work units seeded by seed and returns a value that depends
// on every step, preventing the compiler from eliding the loop. The result is
// a pure function of (seed, n), and distinct seeds yield distinct xorshift
// start states: the seed is mixed with an odd multiplier (injective mod 2^64)
// rather than masked, and only the single zero fixed point is displaced.
func Work(seed uint64, n int64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	if x == 0 {
		x = 1 // xorshift's only fixed point
	}
	steps := n * Unit
	for i := int64(0); i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

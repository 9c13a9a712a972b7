package spin

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOffloadMatchesChain: an offloaded job returns Chain's result whoever
// runs it — a helper, its owner at Join, or another owner waiting for its own
// — with four owners offloading at once at two, four and one Ps.
func TestOffloadMatchesChain(t *testing.T) {
	for _, procs := range []int{2, 4, 1} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var wg sync.WaitGroup
		for o := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 200 {
					seed, n, chunk := uint64(o*1000+i), int64(i%300+1), int64(i%7+1)
					j := Offload(seed, n, chunk)
					j.Join()
					if got, want := j.Collect(), Chain(seed, n, chunk); got != want {
						t.Errorf("GOMAXPROCS=%d: Offload(%d, %d, %d) = %x, Chain %x", procs, seed, n, chunk, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestChainIsChunkedWork: Chain with a chunk covering n is one Work call, and
// otherwise each chunk is seeded with the previous chunk's result.
func TestChainIsChunkedWork(t *testing.T) {
	if Chain(7, 100, 100) != Work(7, 100) || Chain(7, 100, 1000) != Work(7, 100) {
		t.Fatal("Chain with one chunk differs from Work")
	}
	if Chain(7, 100, 40) != Work(Work(Work(7, 40), 40), 20) {
		t.Fatal("Chain(7, 100, 40) is not Work in chunks of 40, 40 and 20")
	}
}

// helperGoroutines counts the live helper goroutines.
func helperGoroutines() (n int) {
	buf := make([]byte, 1<<20)
	size := runtime.Stack(buf, true)
	for _, g := range strings.Split(string(buf[:size]), "\n\n") {
		if strings.Contains(g, "spin.(*helperPool).help(") {
			n++
		}
	}
	return n
}

// TestHelpersFollowGOMAXPROCS: the pool runs at most GOMAXPROCS-1 helpers,
// and once GOMAXPROCS falls to 1 the next offloads wake the parked ones to
// end, so none is left.
func TestHelpersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	burst := func() {
		var jobs [8]*Job
		for i := range jobs {
			jobs[i] = Offload(uint64(i), 512, 512)
		}
		for _, j := range jobs {
			j.Join()
			j.Collect()
		}
	}
	burst()
	if n := helperGoroutines(); n > 2 {
		t.Fatalf("%d helpers at GOMAXPROCS=3, want at most 2", n)
	}
	runtime.GOMAXPROCS(1)
	for deadline := time.Now().Add(10 * time.Second); helperGoroutines() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers left at GOMAXPROCS=1", helperGoroutines())
		}
		burst()
		time.Sleep(time.Millisecond)
	}
}

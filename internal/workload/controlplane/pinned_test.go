package controlplane_test

import (
	"fmt"
	"testing"

	"qithread"
	"qithread/internal/harness"
	"qithread/internal/workload/controlplane"
)

// cellObservables renders everything a cell's schedule determines: the
// execution fingerprint, the packed output, the admission hash and, per
// scheduler domain, the sync-op and turn counts.
func cellObservables(r controlplane.Result) string {
	s := fmt.Sprintf("%v out=%x admit=%016x", r.Fingerprint, r.Output, r.AdmitHash)
	for _, st := range r.Schedulers {
		s += fmt.Sprintf(" d%d=%d/%d", st.Domain, st.Ops, st.Turns)
	}
	return s
}

// TestCellFingerprintsPinned holds the control-plane cell to constants
// recorded before its construction was rebuilt from slabs (PR 20): the cell's
// schedule is the thing the explorer searches, the control-plane programs are
// not among the harness goldens, and every other test here compares a build
// with itself. A cell that creates its objects in another order, names one
// differently or issues one more sync op moves a fingerprint or an ops/turns
// count below.
func TestCellFingerprintsPinned(t *testing.T) {
	explore := qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.BoostBlocked, Record: true}
	qi := harness.QiThread().Cfg
	qi.Record = true
	demo := func(shards int) controlplane.Config {
		return controlplane.Config{
			Entities: 64, Controllers: 4, Shards: shards,
			ValidateWork: 32, EventWork: 8, MaxBatch: 8,
			Log: controlplane.DemoLog(64, controlplane.Transitions),
		}
	}
	for _, tc := range []struct {
		name  string
		cfg   controlplane.Config
		rtcfg qithread.Config
		want  string
	}{
		{"controlplane", controlplane.ScenarioConfig(true, false), explore,
			"d0:061413d2a92cd8e8 x:cbf29ce484222325 out=6789de4 admit=51f23355ccc82c59 d0=91/91"},
		{"controlplane-race", controlplane.ScenarioConfig(false, true), explore,
			"d0:f29c9ec81c5a0678 x:cbf29ce484222325 out=6789de4 admit=e142f30e0a40105b d0=102/102"},
		{"controlplane-fixed", controlplane.ScenarioConfig(false, false), explore,
			"d0:f29c9ec81c5a0678 x:cbf29ce484222325 out=6789de4 admit=e142f30e0a40105b d0=102/102"},
		{"demo-64x3", demo(0), qi,
			"d0:b20d6b03c4701e88 x:cbf29ce484222325 out=c0908125 admit=385a5e07bb1978dc d0=2436/1160"},
		{"demo-64x3-shards-2", demo(2), qi,
			"d0:5168c345e871e169 d1:3caeaf26a6d3fe89 d2:3c2494d2dd3d458f x:ebd7df7b07cd9ca4 out=c0a978fa admit=385a5e07bb1978dc d0=84/84 d1=1241/597 d2=1241/597"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				if got := cellObservables(controlplane.Run(tc.cfg, tc.rtcfg)); got != tc.want {
					t.Fatalf("run %d:\n  got:  %s\n  want: %s", i, got, tc.want)
				}
			}
		})
	}
}

package seu

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
)

// assertReportsEqual demands byte-identical campaign results; only the
// wall-clock field may differ between runs.
func assertReportsEqual(t *testing.T, seq, par *Report) {
	t.Helper()
	if seq.Injections != par.Injections {
		t.Errorf("Injections: sequential %d, parallel %d", seq.Injections, par.Injections)
	}
	if seq.Failures != par.Failures {
		t.Errorf("Failures: sequential %d, parallel %d", seq.Failures, par.Failures)
	}
	if seq.Persistent != par.Persistent {
		t.Errorf("Persistent: sequential %d, parallel %d", seq.Persistent, par.Persistent)
	}
	if seq.SimulatedTime != par.SimulatedTime {
		t.Errorf("SimulatedTime: sequential %v, parallel %v", seq.SimulatedTime, par.SimulatedTime)
	}
	if !reflect.DeepEqual(seq.InjectionsByKind, par.InjectionsByKind) {
		t.Errorf("InjectionsByKind: sequential %v, parallel %v", seq.InjectionsByKind, par.InjectionsByKind)
	}
	if !reflect.DeepEqual(seq.FailuresByKind, par.FailuresByKind) {
		t.Errorf("FailuresByKind: sequential %v, parallel %v", seq.FailuresByKind, par.FailuresByKind)
	}
	if !reflect.DeepEqual(seq.SensitiveBits, par.SensitiveBits) {
		t.Errorf("SensitiveBits differ: sequential %d records, parallel %d records",
			len(seq.SensitiveBits), len(par.SensitiveBits))
	}
}

// TestParallelSequentialEquivalence is the campaign-determinism contract:
// Workers: 1 and Workers: 4 produce identical reports for catalog designs
// at sampled and exhaustive rates. The Workers: 4 runs also put the
// multi-worker chunk pool under the race detector in the default test suite.
func TestParallelSequentialEquivalence(t *testing.T) {
	cases := []struct {
		design  string
		sample  float64
		maxBits int64 // bounds the exhaustive cases so the suite stays fast
	}{
		{design: "MULT 12", sample: 0.1},
		{design: "MULT 12", sample: 1.0, maxBits: 9000},
		{design: "LFSR 18", sample: 0.1},
		{design: "LFSR 18", sample: 1.0, maxBits: 9000},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s_sample_%.1f", tc.design, tc.sample), func(t *testing.T) {
			spec, err := designs.ByName(tc.design)
			if err != nil {
				t.Fatal(err)
			}
			run := func(workers int) *Report {
				bd := boardFor(t, spec.Build(), device.Tiny())
				opts := DefaultOptions()
				opts.Sample = tc.sample
				opts.MaxBits = tc.maxBits
				opts.Seed = 11
				opts.Workers = workers
				rep, err := Run(bd, opts)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			seq := run(1)
			par := run(4)
			if seq.Injections == 0 {
				t.Fatal("campaign injected nothing")
			}
			assertReportsEqual(t, seq, par)
			if !sort.SliceIsSorted(par.SensitiveBits, func(i, j int) bool {
				return par.SensitiveBits[i].Addr < par.SensitiveBits[j].Addr
			}) {
				t.Error("parallel SensitiveBits not sorted by Addr")
			}
		})
	}
}

// TestRunIsReplayStable guards the per-bit hash-sampling property directly:
// two runs with identical options inject the identical bit set even though
// board state and RNG streams evolved differently in between.
func TestRunIsReplayStable(t *testing.T) {
	spec, err := designs.ByName("MULT 12")
	if err != nil {
		t.Fatal(err)
	}
	bd := boardFor(t, spec.Build(), device.Tiny())
	opts := DefaultOptions()
	opts.Sample = 0.08
	opts.Seed = 17
	opts.Workers = 1
	first, err := Run(bd, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the board between campaigns; a replay must not care.
	bd.StepN(37)
	second, err := Run(bd, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, first, second)
}

// TestMaxBitsCapsIdenticallyAcrossWorkers pins the MaxBits semantics under
// sharding: the cap selects the first MaxBits sampled bits in address
// order, not "whichever shard got there first".
func TestMaxBitsCapsIdenticallyAcrossWorkers(t *testing.T) {
	spec, err := designs.ByName("MULT 12")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Report {
		bd := boardFor(t, spec.Build(), device.Tiny())
		opts := DefaultOptions()
		opts.Sample = 0.5
		opts.MaxBits = 700
		opts.Seed = 23
		opts.Workers = workers
		rep, err := Run(bd, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq := run(1)
	if seq.Injections != 700 {
		t.Fatalf("MaxBits cap not honoured: %d injections", seq.Injections)
	}
	assertReportsEqual(t, seq, run(3))
}

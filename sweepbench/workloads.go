package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/crosscheck"
	"repro/internal/place"
	"repro/internal/seu"
)

// workload is one named benchmark input family. Every workload runs the
// vector kernel with persistence classification on and one campaign worker;
// the campaign seed comes from the run's --seed (see campaignSeed) unless
// the workload fixes it.
type workload struct {
	name string
	// seed, when set, is the campaign seed of every run, whatever --seed.
	seed int64
	// design is the catalogue name; "" selects the crosscheck stress "mix"
	// design, which only the one-shot and chunk-API paths can run.
	design string
	geom   string
	sample float64
	// path is the second, job-level path each iteration times next to the
	// one-shot sweep: "job" (campaign.Scheduler, local pool), "chunked"
	// (seu chunk API + DirStore checkpoints) or "fabric" (scheduler +
	// coordinator + two HTTP workers).
	path string
	// modelledS, when set, is the modelled SLAAC-1V test time in seconds
	// the report must show (rounded to 10 ms).
	modelledS float64
}

// stressSeed selects the crosscheck.StressDesigns set the stress workload
// draws its "mix" design from.
const stressSeed = 3

// workloads returns the workload table at full or test scale. The test
// scale keeps every path and layer but shrinks the sweeps to a fraction of
// a second, for the self-test.
func workloads(scale string) (map[string]workload, error) {
	ws := []workload{
		{name: "xqvr-mult12", design: "MULT 12", geom: "xqvr1000", sample: 1, path: "job", modelledS: 1243.49},
		// The stress design is fixed (stressSeed), and so is the 5% of its
		// bits the campaign samples: across the 16 campaign seeds the
		// simulated cycles vary by 0.064 (quartile distance ÷ median), a
		// quarter of the time bound, which would add to the host's spread.
		// BENCHMARK.json does not list it: it is run by hand (README.md).
		{name: "stress-mix", seed: 1, geom: "small", sample: 0.05, path: "chunked"},
		{name: "fabric-lfsr72", design: "LFSR 72", geom: "small", sample: 1, path: "fabric"},
	}
	switch scale {
	case "full":
	case "test":
		ws[0].geom, ws[0].sample, ws[0].modelledS = "tiny", 0.05, 0
		ws[1].sample = 0.004
		ws[2].sample = 0.01
	default:
		return nil, fmt.Errorf("unknown scale %q (full|test)", scale)
	}
	m := make(map[string]workload, len(ws))
	for _, w := range ws {
		m[w.name] = w
	}
	return m, nil
}

func workloadNames(m map[string]workload) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// pinSeeds is the number of campaign seeds with a pinned report hash. The
// run's --seed picks one of them, so any --seed gives a checkable input.
const pinSeeds = 16

// campaignSeed maps a run's --seed onto the pinned campaign seeds
// 1..pinSeeds, or returns the workload's fixed seed.
func (w workload) campaignSeed(seed int64) int64 {
	if w.seed != 0 {
		return w.seed
	}
	return 1 + ((seed%pinSeeds)+pinSeeds)%pinSeeds
}

// spec is the workload's campaign spec for one campaign seed.
func (w workload) spec(seed int64, kernel string) core.CampaignSpec {
	return core.CampaignSpec{
		Design: w.design, Geom: w.geom, Seed: seed, Sample: w.sample,
		Workers: 1, Kernel: kernel,
	}
}

// setupTimes is one design set-up split into its two layer calls.
type setupTimes struct {
	build, testbed float64 // seconds
}

// setUp places the workload's design freshly and instantiates its testbed:
// core.Build + core.Testbed for catalogue designs, crosscheck.StressDesigns
// + board.New for the stress design. A fresh placement means the seu plan
// cache and replica pool (both keyed by placement) start empty.
func (w workload) setUp(cs core.CampaignSpec) (*board.SLAAC1V, setupTimes, error) {
	cfg, err := cs.Resolve()
	if err != nil {
		return nil, setupTimes{}, err
	}
	var st setupTimes
	t0 := time.Now()
	var p *place.Placed
	if w.design == "" {
		ds, err := crosscheck.StressDesigns(cfg.Geom, stressSeed)
		if err != nil {
			return nil, st, err
		}
		p = ds[len(ds)-1].Placed // the "mix" generator is last
	} else if p, err = core.Build(cfg, w.design); err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	bd, err := core.Testbed(cfg, p)
	if err != nil {
		return nil, st, err
	}
	st.build, st.testbed = since(t0, t1), since(t1, time.Now())
	return bd, st, nil
}

// options resolves the campaign spec to the seu options every path uses.
func options(cs core.CampaignSpec) (seu.Options, error) {
	cfg, err := cs.Resolve()
	if err != nil {
		return seu.Options{}, err
	}
	return cfg.CampaignOptions(true), nil
}

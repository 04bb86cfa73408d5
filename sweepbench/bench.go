package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minIterations is the fewest timed iterations a run makes, however short
// --seconds is: the traced run needs two chunked sweeps (128 chunk samples)
// for its p90 chunk time.
const minIterations = 2

// childTimeout bounds one child process beyond the run's own budget; a hung
// campaign fails the run instead of hanging it.
const childTimeout = 150 * time.Second

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name every printed metric with its unit, in the
// order BENCHMARK.json lists them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"job_s", "s"},
	{"ns_per_injection", "ns"},
	{"ns_per_simulated_injection", "ns"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"core.build_s", "s"},
	{"core.testbed_s", "s"},
	{"seu.runner_setup_s", "s"},
	{"seu.plan_cpu_s", "s"},
	{"seu.plan_share", "ratio"},
	{"seu.plan_alloc_mb", "MB"},
	{"go.gc_cpu_s", "s"},
	{"seu.sweep_alloc_mb", "MB"},
	{"seu.chunks_run_s", "s"},
	{"seu.chunk_p50_ms", "ms"},
	{"seu.chunk_p90_ms", "ms"},
	{"seu.unlabelled_cpu_s", "s"},
	{"seu.unlabelled_share", "ratio"},
	{"seu.run_alloc_mb", "MB"},
	{"seu.simulate_cpu_s", "s"},
	{"seu.simulate_share", "ratio"},
	{"seu.emit_cpu_s", "s"},
	{"seu.emit_share", "ratio"},
	{"fpga.vector_sweeps", "count"},
	{"fpga.vector_drains", "count"},
	{"fpga.lanes_refilled", "count"},
	{"fpga.ffwd_cycles", "count"},
	{"seu.cycles_simulated", "count"},
	{"seu.cycles_skipped", "count"},
	{"seu.early_exit_ratio", "ratio"},
	{"seu.injections", "count"},
	{"seu.pad_skipped", "count"},
	{"seu.triage_skipped", "count"},
	{"seu.simulated_injections", "count"},
	{"seu.retired_ratio", "ratio"},
	{"seu.failures", "count"},
	{"seu.plan_cache_misses", "count"},
	{"seu.pool_misses", "count"},
	{"seu.assemble_s", "s"},
	{"campaign.queue_wait_s", "s"},
	{"campaign.first_chunk_s", "s"},
	{"campaign.chunk_gap_p50_ms", "ms"},
	{"campaign.finalize_s", "s"},
	{"campaign.blob_put_ms_p50", "ms"},
	{"campaign.blob_puts", "count"},
	{"campaign.blob_bytes", "bytes"},
	{"fabric.register_ms", "ms"},
	{"fabric.first_lease_s", "s"},
	{"fabric.lease_ms_p50", "ms"},
	{"fabric.lease_empty", "count"},
	{"fabric.complete_ms_p50", "ms"},
	{"fabric.blob_put_ms_p50", "ms"},
	{"fabric.blob_get_ms_p50", "ms"},
	{"fabric.blob_bytes", "bytes"},
	{"fabric.leases_issued", "count"},
	{"fabric.leases_expired", "count"},
	{"fabric.leases_stolen", "count"},
	{"fabric.commit_rejects", "count"},
	{"trace.overhead_s", "s"},
	{"error_rate", "ratio"},
}

// step is one campaign of an iteration.
type step struct {
	kind  string
	trace bool
}

// formatSteps and parseSteps carry an iteration's steps to a child as
// "kind:0,kind:1".
func formatSteps(steps []step) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		parts[i] = s.kind + ":" + strconv.FormatBool(s.trace)
	}
	return strings.Join(parts, ",")
}

func parseSteps(list string) ([]step, error) {
	var steps []step
	for _, part := range strings.Split(list, ",") {
		kind, trace, ok := strings.Cut(part, ":")
		t, err := strconv.ParseBool(trace)
		if !ok || err != nil {
			return nil, fmt.Errorf("bad step %q", part)
		}
		steps = append(steps, step{kind, t})
	}
	return steps, nil
}

// iterationSteps lists the campaigns one iteration runs, in order. Untraced:
// the one-shot sweep and the workload's job-level path. Traced: an untraced
// one-shot (the baseline of trace.overhead_s), a profiled one-shot, a
// chunk-API run split into layer calls, and the traced job-level path.
func iterationSteps(w workload, trace bool) []step {
	if !trace {
		return []step{{kindOneshot, false}, {w.path, false}}
	}
	steps := []step{{kindOneshot, false}, {kindOneshot, true}, {kindChunked, true}}
	if w.path != kindChunked {
		steps = append(steps, step{w.path, true})
	}
	return steps
}

// iteration holds one timed iteration's checked campaign results.
type iteration struct {
	children []*childResult
}

func (it iteration) find(kind string, trace bool) *childResult {
	for _, c := range it.children {
		if c.Kind == kind && c.Trace == trace {
			return c
		}
	}
	return nil
}

// bench runs iterations until --seconds is used up (at least
// minIterations timed ones), stopping at the first failed check. A child
// runs as many iterations as fit; the parent starts another only when one
// ended early (see maxLiveHeapMB) and a warm-up plus an iteration still fit.
func bench(ctx context.Context, cfg config, w workload) (*result, error) {
	pins, err := loadPins(cfg.pins)
	if err != nil {
		return nil, err
	}
	seed := w.campaignSeed(cfg.seed)
	want, err := pinFor(pins, w, seed)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	res := &result{Metrics: map[string]metric{}}
	steps := iterationSteps(w, cfg.trace)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var iters []iteration
	var firstTwo time.Duration // the longest child start-up, warm-up and first iteration
	for n := 0; res.Failed == 0; n++ {
		if len(iters) >= minIterations && time.Now().Add(firstTwo).After(deadline) {
			break
		}
		t0 := time.Now()
		dir := filepath.Join(runDir, strconv.Itoa(n))
		var byIter [][]*childResult
		err := spawn(ctx, exe, cfg, w, seed, steps, deadline, 1+minIterations-len(iters), dir, func(cr *childResult) error {
			res.Attempted++
			if err := check(w, want, cr); err != nil {
				res.Failed++
				return fmt.Errorf("iteration %d %s (trace %v): %w", cr.Iter, cr.Kind, cr.Trace, err)
			}
			for len(byIter) <= cr.Iter {
				byIter = append(byIter, nil)
			}
			byIter[cr.Iter] = append(byIter[cr.Iter], cr)
			if cr.Iter == 1 && len(byIter[1]) == len(steps) {
				firstTwo = max(firstTwo, time.Since(t0))
			}
			return nil
		})
		if err != nil {
			if res.Failed == 0 { // the child failed rather than a check
				res.Attempted++
				res.Failed++
			}
			fmt.Fprintf(os.Stderr, "sweepbench: %s child %d: %v\n", w.name, n, err)
		}
		// Iteration 0 is the child's warm-up; only complete iterations count.
		for i := 1; i < len(byIter); i++ {
			if len(byIter[i]) != len(steps) {
				continue
			}
			iters = append(iters, iteration{children: byIter[i]})
			var times []string
			for _, c := range byIter[i] {
				times = append(times, fmt.Sprintf("%s=%.4fs/%.0fMB", c.Kind, c.SweepS+c.JobS, c.RSSMB))
			}
			fmt.Fprintf(os.Stderr, "sweepbench: %s child %d iteration %d: %s\n", w.name, n, i, strings.Join(times, " "))
		}
		fmt.Fprintf(os.Stderr, "sweepbench: %s child %d: %d iterations in %.1fs\n",
			w.name, n, len(byIter), time.Since(t0).Seconds())
	}
	// A failed run still prints what its complete iterations measured, and
	// the traced run's error_rate counts the failure.
	res.Correct = res.Failed == 0
	if cfg.trace {
		res.Metrics = layerMetrics(w, iters, res)
	} else if len(iters) > 0 {
		res.Metrics = endToEndMetrics(w, iters)
	}
	return res, nil
}

// spawn runs one child until deadline (at least minIters iterations) and
// passes each campaign result it prints to accept as it arrives. It stops
// the child at the first error accept returns, and returns that error, a
// campaign error the child printed, or the child's own failure.
func spawn(ctx context.Context, exe string, cfg config, w workload, seed int64, steps []step, deadline time.Time, minIters int, dir string, accept func(*childResult) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithDeadline(ctx, deadline.Add(childTimeout))
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-steps", formatSteps(steps), "-workload", w.name, "-scale", cfg.scale,
		"-seed", strconv.FormatInt(seed, 10), "-poll", cfg.poll.String(), "-dir", dir,
		"-until", strconv.FormatInt(deadline.UnixNano(), 10), "-min-iters", strconv.Itoa(max(minIters, 2)))
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(cfg.gomaxprocs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	var lineErr error
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 64<<20)
	for lineErr == nil && sc.Scan() {
		var cr childResult
		switch err := json.Unmarshal(sc.Bytes(), &cr); {
		case err != nil:
			lineErr = fmt.Errorf("child printed %q: %w", sc.Text(), err)
		case cr.Err != "":
			lineErr = fmt.Errorf("iteration %d %s (trace %v): %s", cr.Iter, cr.Kind, cr.Trace, cr.Err)
		default:
			lineErr = accept(&cr)
		}
	}
	if lineErr != nil {
		cancel() // kills the child
	}
	_, _ = io.Copy(io.Discard, stdout) // drain so the child can exit
	if err := cmd.Wait(); err != nil && lineErr == nil {
		lineErr = fmt.Errorf("child: %w", err)
	}
	return lineErr
}

// check is the per-campaign correctness gate: the report matches the
// pinned hash (generated with, and checked against, the scalar sweep
// oracle), the modelled SLAAC-1V time is one injection loop per injection,
// and the campaign started cold — it built its own plan and took nothing
// from a plan cache or replica pool.
func check(w workload, want string, cr *childResult) error {
	if cr.Hash != want {
		return fmt.Errorf("report hash %s, pinned %s", cr.Hash, want)
	}
	if err := checkModelledTime(cr.Counts); err != nil {
		return err
	}
	if w.modelledS != 0 && math.Abs(cr.Counts.SimulatedTimeS-w.modelledS) >= 0.005 {
		return fmt.Errorf("modelled time %.2f s, want %.2f s", cr.Counts.SimulatedTimeS, w.modelledS)
	}
	if cr.PlanHits != 0 || cr.PoolHits != 0 {
		return fmt.Errorf("warm start: %d plan-cache hits, %d replica-pool hits", cr.PlanHits, cr.PoolHits)
	}
	if cr.PlanMisses < 1 {
		return fmt.Errorf("campaign built no pre-plan (vector kernel not engaged)")
	}
	return nil
}

// endToEndMetrics reports each time as the mean of the fastest quarter of
// the run's samples (fastQuarter). peak_rss_mb is the largest one-shot
// campaign RSS (childLoop.campaign) of the run.
func endToEndMetrics(w workload, iters []iteration) map[string]metric {
	var setup, bringup, sweep, job, rss []float64
	for _, it := range iters {
		one := it.find(kindOneshot, false)
		path := it.find(w.path, false)
		for i := range one.Build {
			setup = append(setup, one.Build[i]+one.Testbed[i])
		}
		bringup = append(bringup, path.BringupS)
		sweep = append(sweep, one.SweepS)
		job = append(job, path.JobS)
		rss = append(rss, one.RSSMB)
	}
	c := iters[0].children[0].Counts
	primary := fastQuarter(sweep)
	if w.path == kindFabric {
		primary = fastQuarter(job)
	}
	vals := map[string]float64{
		// Bring-up is 0 except on fabric-lfsr72.
		"setup_s":                    fastQuarter(setup) + fastQuarter(bringup),
		"sweep_s":                    fastQuarter(sweep),
		"job_s":                      fastQuarter(job),
		"ns_per_injection":           1e9 * primary / float64(c.Injections),
		"ns_per_simulated_injection": 1e9 * primary / float64(max(c.simulated(), 1)),
		"peak_rss_mb":                slices.Max(rss),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// layerMetrics folds a traced run into the per-layer metrics: medians
// across iterations of each child's layer values, chunk-time percentiles
// over every chunk of the run, and the exact report counts. A layer the
// workload does not exercise reads 0. A run that failed before completing
// an iteration prints error_rate alone.
func layerMetrics(w workload, iters []iteration, res *result) map[string]metric {
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	var chunkMs, sweep, tracedSweep []float64
	for _, it := range iters {
		one, traced := it.find(kindOneshot, false), it.find(kindOneshot, true)
		chunked, path := it.find(kindChunked, true), it.find(w.path, true)
		for _, c := range []*childResult{one, traced} {
			for i := range c.Build {
				add("core.build_s", c.Build[i])
				add("core.testbed_s", c.Testbed[i])
			}
		}
		sweep = append(sweep, one.SweepS)
		tracedSweep = append(tracedSweep, traced.SweepS)
		chunkMs = append(chunkMs, chunked.ChunkMs...)
		layers := map[string]float64{}
		for _, c := range []*childResult{traced, chunked, path} {
			for k, v := range c.Layers {
				layers[k] = v
			}
		}
		for k, v := range layers {
			add(k, v)
		}
		var planMisses, poolMisses int64
		for _, c := range it.children {
			planMisses += c.PlanMisses
			poolMisses += c.PoolMisses
		}
		add("seu.plan_cache_misses", float64(planMisses))
		add("seu.pool_misses", float64(poolMisses))
	}
	vals := map[string]float64{}
	for k, xs := range per {
		vals[k] = median(xs)
	}
	// error_rate counts failed campaigns; on fabric-lfsr72 it adds the
	// fabric's own failed operations per lease.
	vals["error_rate"] = float64(res.Failed)/float64(res.Attempted) + vals["fabric.error_rate"]
	if len(iters) == 0 {
		return map[string]metric{"error_rate": {Value: vals["error_rate"], Unit: "ratio"}}
	}
	vals["seu.chunk_p50_ms"] = percentile(chunkMs, 50)
	vals["seu.chunk_p90_ms"] = percentile(chunkMs, 90)
	vals["trace.overhead_s"] = median(tracedSweep) - median(sweep)

	c := iters[0].find(kindOneshot, true).Counts
	inj := float64(c.Injections)
	vals["seu.injections"] = inj
	vals["seu.pad_skipped"] = float64(c.Pad)
	vals["seu.triage_skipped"] = float64(c.TriageSkipped)
	vals["seu.simulated_injections"] = float64(c.simulated())
	vals["seu.failures"] = float64(c.Failures)
	vals["seu.cycles_simulated"] = float64(c.CyclesSimulated)
	vals["seu.cycles_skipped"] = float64(c.CyclesSkipped)
	if inj > 0 {
		vals["seu.retired_ratio"] = float64(c.Pad+c.TriageSkipped) / inj
	}
	if cyc := c.CyclesSimulated + c.CyclesSkipped; cyc > 0 {
		vals["seu.early_exit_ratio"] = float64(c.CyclesSkipped) / float64(cyc)
	}
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// fastQuarter is the mean of the fastest quarter of xs (at least one). The
// timed work is deterministic, so host contention can only add time; on a
// shared 2-vCPU VM one xqvr-mult12 one-shot ran 0.48–0.98 s within a single
// 40-second run, in slow stretches of seconds to minutes. The fastest
// quarter leaves the slow stretches out, and its mean, unlike the single
// fastest sample, does not hang on one lucky campaign (README.md,
// Run-to-run spread).
func fastQuarter(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := max(len(s)/4, 1)
	var sum float64
	for _, x := range s[:n] {
		sum += x
	}
	return sum / float64(n)
}

// median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/board"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/seu"
)

// A child process runs iterations of campaigns, each on a freshly placed
// design with a fresh state dir, so the seu plan cache and replica pool
// (both keyed by placement) start empty for every campaign, exactly as they
// do for a new seusim or campaignd user. The first iteration is the
// warm-up: it pays the process's first-touch page faults and one-time
// initialisation, is checked like every other, and is not timed. Running
// many campaigns in one process, rather than one per process, takes the
// kernel's zeroing of a fresh 1 GB heap (about 0.4 s of system time with a
// varying fault count on xqvr-mult12) out of every timed sample, and
// leaves time for more samples. The parent runs one child at a time.

// Child kinds.
const (
	kindOneshot = "oneshot" // seu.RunContext on a fresh testbed (seusim)
	kindJob     = "job"     // campaign.Scheduler, local pool (campaignd)
	kindChunked = "chunked" // seu chunk API + DirStore checkpoints
	kindFabric  = "fabric"  // scheduler + coordinator + two HTTP workers
)

// A one-shot child places its design at least setupMinReps times and until
// setupMinTime has passed, so set-up is timed over about 0.3 s of work
// rather than three placements of 14–70 ms each. The sweep runs on the
// last placement.
const (
	setupMinReps = 3
	setupMinTime = 300 * time.Millisecond
)

// fabricWorkers is the number of in-process worker nodes (one slot each).
const fabricWorkers = 2

// childResult is what a child prints as one stdout line per campaign.
type childResult struct {
	Iter   int    `json:"iter"` // the child's iteration; 0 is the warm-up
	Kind   string `json:"kind"`
	Trace  bool   `json:"trace"`
	Hash   string `json:"hash"`
	Counts counts `json:"counts"`
	// Build/Testbed are the one-shot child's set-up times, one per placement.
	Build   []float64 `json:"build,omitempty"`
	Testbed []float64 `json:"testbed,omitempty"`
	// BringupS is the fabric child's coordinator + worker registration time.
	BringupS float64 `json:"bringup_s,omitempty"`
	SweepS   float64 `json:"sweep_s,omitempty"`
	JobS     float64 `json:"job_s,omitempty"`
	// Plan-cache and replica-pool deltas across the timed campaign.
	PlanHits   int64 `json:"plan_hits"`
	PlanMisses int64 `json:"plan_misses"`
	PoolHits   int64 `json:"pool_hits"`
	PoolMisses int64 `json:"pool_misses"`
	// Layers holds the traced per-layer values, keyed by metric name.
	Layers map[string]float64 `json:"layers,omitempty"`
	// ChunkMs are the chunked child's per-chunk Run times (pooled across
	// iterations for percentiles).
	ChunkMs []float64 `json:"chunk_ms,omitempty"`
	Err     string    `json:"err,omitempty"`
	// RSSMB is the process's peak RSS during the campaign less the live
	// heap it started with (see childLoop.campaign).
	RSSMB float64 `json:"rss_mb,omitempty"`
}

type childArgs struct {
	kind  string
	w     workload
	seed  int64 // campaign seed
	trace bool
	poll  time.Duration
	dir   string // private state dir
}

// maxLiveHeapMB ends a child once the live heap between campaigns exceeds
// it. The seu plan cache holds a plan of up to a million entries per
// placement for the life of the process (LFSR 72's full Small sweep is
// under that bound, about 86 MB an iteration of fabric-lfsr72; XQVR1000's
// is over it), so a long child of fresh placements keeps growing; the
// parent starts a fresh child instead.
const maxLiveHeapMB = 1024

// childLoop runs iterations of steps until, after at least minIters, the
// next iteration would not finish before until or the live heap passes
// maxLiveHeapMB. It prints one childResult line per campaign and stops at
// the first campaign error, which it prints as the line's Err.
type childLoop struct {
	w        workload
	seed     int64
	poll     time.Duration
	dir      string
	steps    []step
	until    time.Time
	minIters int
}

func (l childLoop) run(ctx context.Context, stdout io.Writer) error {
	var longest time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		for j, s := range l.steps {
			res, err := l.campaign(ctx, s, filepath.Join(l.dir, fmt.Sprintf("%d-%d", i, j)))
			if err != nil {
				res = &childResult{Kind: s.kind, Trace: s.trace, Err: err.Error()}
			}
			res.Iter = i
			b, _ := json.Marshal(res) // childResult is a closed struct of marshalable fields
			fmt.Fprintln(stdout, string(b))
			if err != nil {
				return err
			}
		}
		if i > 0 { // the warm-up is slower than the iterations that follow
			longest = max(longest, time.Since(t0))
		}
		if i+1 >= l.minIters && (time.Now().Add(longest).After(l.until) || liveHeapMB() > maxLiveHeapMB) {
			return nil
		}
	}
}

// campaign runs one step in a fresh state dir. A forced GC first gives
// every timed campaign the same starting heap: nothing of the previous
// campaign left to collect. The campaign's RSS is its peak RSS less the
// live heap it started with, which on fabric-lfsr72 is mostly the plans
// the plan cache kept from earlier iterations; pages the runtime keeps
// mapped between campaigns count, as they do in a long-running process.
func (l childLoop) campaign(ctx context.Context, s step, dir string) (*childResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	live := liveHeapMB()
	resetPeakRSS()
	res, err := runChild(ctx, childArgs{kind: s.kind, w: l.w, seed: l.seed, trace: s.trace, poll: l.poll, dir: dir})
	if err != nil {
		return nil, err
	}
	res.RSSMB = peakRSSMB() - live
	return res, nil
}

func runChild(ctx context.Context, a childArgs) (*childResult, error) {
	res := &childResult{Kind: a.kind, Trace: a.trace, Layers: map[string]float64{}}
	cs := a.w.spec(a.seed, "vector")
	planH0, planM0 := seu.PlanCacheStats()
	poolH0, poolM0 := seu.PoolStats()
	var err error
	switch a.kind {
	case kindOneshot:
		err = runOneshot(ctx, a, cs, res)
	case kindChunked:
		err = runChunked(ctx, a, cs, res)
	case kindJob:
		err = runSchedulerJob(ctx, a, cs, res)
	case kindFabric:
		err = runFabricJob(ctx, a, cs, res)
	default:
		err = fmt.Errorf("unknown child kind %q", a.kind)
	}
	if err != nil {
		return nil, err
	}
	planH1, planM1 := seu.PlanCacheStats()
	poolH1, poolM1 := seu.PoolStats()
	res.PlanHits, res.PlanMisses = planH1-planH0, planM1-planM0
	res.PoolHits, res.PoolMisses = poolH1-poolH0, poolM1-poolM0
	return res, nil
}

// runOneshot times seu.RunContext on a freshly placed design: the seusim
// path. Traced, it also profiles the sweep's CPU by pprof phase label and
// reads runtime/metrics and vector-kernel counter deltas around it.
func runOneshot(ctx context.Context, a childArgs, cs core.CampaignSpec, res *childResult) error {
	opts, err := options(cs)
	if err != nil {
		return err
	}
	var bd *board.SLAAC1V
	for t0 := time.Now(); len(res.Build) < setupMinReps || time.Since(t0) < setupMinTime; {
		b, st, err := a.w.setUp(cs)
		if err != nil {
			return err
		}
		bd = b
		res.Build = append(res.Build, st.build)
		res.Testbed = append(res.Testbed, st.testbed)
	}
	var prof bytes.Buffer
	var rt0 runtimeSnap
	var vk0 [4]int64
	if a.trace {
		vk0 = vectorStats()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		rt0 = readRuntime()
	}
	t0 := time.Now()
	rep, err := seu.RunContext(ctx, bd, opts)
	res.SweepS = since(t0, time.Now())
	if a.trace {
		rt1 := readRuntime()
		pprof.StopCPUProfile()
		vk1 := vectorStats()
		if err == nil {
			err = oneshotLayers(res.Layers, &prof, rt0, rt1, vk0, vk1)
		}
	}
	if err != nil {
		return err
	}
	res.Hash = canonFromReport(rep).hash()
	res.Counts = countsFromReport(rep)
	return nil
}

func vectorStats() [4]int64 {
	var v [4]int64
	v[0], v[1], v[2], v[3] = seu.VectorKernelStats()
	return v
}

func oneshotLayers(l map[string]float64, prof *bytes.Buffer, rt0, rt1 runtimeSnap, vk0, vk1 [4]int64) error {
	phases, err := phaseCPU(prof.Bytes())
	if err != nil {
		return err
	}
	var total time.Duration
	for _, d := range phases {
		total += d
	}
	for _, ph := range []struct{ phase, name string }{
		{"plan", "plan"}, {"simulate", "simulate"}, {"emit", "emit"}, {"", "unlabelled"},
	} {
		d := phases[ph.phase]
		l["seu."+ph.name+"_cpu_s"] = d.Seconds()
		if total > 0 {
			l["seu."+ph.name+"_share"] = float64(d) / float64(total)
		}
	}
	l["go.gc_cpu_s"] = rt0.gcSeconds(rt1)
	l["seu.sweep_alloc_mb"] = rt0.allocMB(rt1)
	for i, name := range []string{"fpga.vector_sweeps", "fpga.vector_drains", "fpga.lanes_refilled", "fpga.ffwd_cycles"} {
		l[name] = float64(vk1[i] - vk0[i])
	}
	return nil
}

// runChunked drives the sweep through the seu chunk API the scheduler and
// fabric workers use — NewChunkRunner, Run per chunk with each result
// checkpointed as a ChunkPayload blob in a DirStore, AssembleReport — and
// times the whole from design set-up to report. Traced, it splits that
// time and the allocations into the layer calls.
func runChunked(ctx context.Context, a childArgs, cs core.CampaignSpec, res *childResult) error {
	opts, err := options(cs)
	if err != nil {
		return err
	}
	cfg, err := cs.Resolve()
	if err != nil {
		return err
	}
	dirStore, err := fabric.NewDirStore(filepath.Join(a.dir, "blobs"))
	if err != nil {
		return err
	}
	var store fabric.BlobStore = dirStore
	ts := &timedStore{BlobStore: dirStore}
	if a.trace {
		store = ts
	}

	t0 := time.Now()
	bd, _, err := a.w.setUp(cs)
	if err != nil {
		return err
	}
	rtSetup := readRuntime()
	t1 := time.Now()
	runner, err := seu.NewChunkRunner(bd, opts)
	if err != nil {
		return err
	}
	t2 := time.Now()
	rtRunner := readRuntime()
	plan := seu.PlanChunks(cfg.Geom, opts, campaign.DefaultChunks)
	results := make([]*seu.ChunkResult, 0, len(plan))
	var runS, runAlloc float64
	for _, c := range plan {
		var rt0 runtimeSnap
		if a.trace {
			rt0 = readRuntime()
		}
		tc := time.Now()
		cr, err := runner.Run(ctx, c)
		if err != nil {
			return err
		}
		d := since(tc, time.Now())
		if a.trace {
			runAlloc += rt0.allocMB(readRuntime())
			runS += d
			res.ChunkMs = append(res.ChunkMs, 1e3*d)
		}
		b, err := json.Marshal(fabric.ChunkPayload{Spec: c, Result: cr})
		if err != nil {
			return err
		}
		if _, err := store.Put(b); err != nil {
			return err
		}
		results = append(results, cr)
	}
	t3 := time.Now()
	rep := runner.AssembleReport(results)
	t4 := time.Now()
	res.JobS = since(t0, t4)
	if a.trace {
		l := res.Layers
		l["seu.runner_setup_s"] = since(t1, t2)
		l["seu.plan_alloc_mb"] = rtSetup.allocMB(rtRunner)
		l["seu.chunks_run_s"] = runS
		l["seu.run_alloc_mb"] = runAlloc
		l["seu.assemble_s"] = since(t3, t4)
		if a.w.path == kindChunked {
			// This run is the workload's job-level path: its checkpoint
			// Puts are the campaign layer's.
			putMs, _, putBytes := ts.stats()
			l["campaign.blob_put_ms_p50"] = median(putMs)
			l["campaign.blob_puts"] = float64(len(putMs))
			l["campaign.blob_bytes"] = float64(putBytes)
		}
	}
	res.Hash = canonFromReport(rep).hash()
	res.Counts = countsFromReport(rep)
	return nil
}

// jobTimeline is a job's life as the scheduler records it. submit is this
// process's monotonic reading just before Submit; every *At field is a
// wall-clock time: the submit call's, and the publish times of the events,
// except doneAt, which is the job's Status.FinishedAt. job_s is doneAt −
// submitAt, so it depends neither on when the event reader got to run nor
// on whether the final event reached it (the broker drops events for a
// full subscriber, and on one P it dropped xqvr-mult12's final event in
// half the jobs).
type jobTimeline struct {
	submit    time.Time
	submitAt  time.Time
	runningAt time.Time
	chunksAt  []time.Time // one per committed chunk
	doneAt    time.Time
	state     campaign.State
	err       string
}

// runJobEvents submits spec and follows its event stream to the final
// event. A lost final event is caught by checking the job's state every
// 100 ms; that check only ends the wait and never enters job_s.
func runJobEvents(ctx context.Context, sched *campaign.Scheduler, spec campaign.JobSpec) (jobTimeline, error) {
	var tl jobTimeline
	id := spec.ID()
	events, cancel := sched.Subscribe(id)
	defer cancel()
	tl.submit = time.Now()
	tl.submitAt = tl.submit.Round(0)
	if _, err := sched.Submit(spec); err != nil {
		return tl, err
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return tl, fmt.Errorf("job %s: event stream closed", id)
			}
			if ev.State == campaign.StateRunning && tl.runningAt.IsZero() {
				tl.runningAt = ev.Time
			}
			for len(tl.chunksAt) < ev.ChunksDone {
				tl.chunksAt = append(tl.chunksAt, ev.Time)
			}
			if ev.Final {
				break wait
			}
		case <-tick.C:
			if st, ok := sched.Get(id); ok && st.State.Terminal() {
				break wait
			}
		case <-ctx.Done():
			return tl, ctx.Err()
		}
	}
	st, ok := sched.Get(id)
	if !ok || st.FinishedAt == nil {
		return tl, fmt.Errorf("job %s: final state without a finish time", id)
	}
	tl.doneAt, tl.state, tl.err = *st.FinishedAt, st.State, st.Error
	return tl, nil
}

// finishJob checks the job ended done, reads its report and chunk blobs
// back (after the timed region) and fills the result's hash and counts.
func finishJob(sched *campaign.Scheduler, spec campaign.JobSpec, tl jobTimeline, store fabric.BlobStore, res *childResult) error {
	if tl.state != campaign.StateDone {
		return fmt.Errorf("job ended %s: %s", tl.state, tl.err)
	}
	res.JobS = since(tl.submitAt, tl.doneAt)
	report, err := sched.Report(spec.ID())
	if err != nil {
		return err
	}
	opts, err := options(*spec.SEU)
	if err != nil {
		return err
	}
	cfg, err := spec.SEU.Resolve()
	if err != nil {
		return err
	}
	nChunks := len(seu.PlanChunks(cfg.Geom, opts, campaign.DefaultChunks))
	cr, c, err := canonFromJob(report, store, nChunks)
	if err != nil {
		return err
	}
	res.Hash, res.Counts = cr.hash(), c
	return nil
}

// timelineLayers fills the campaign.* event metrics of a traced job.
func timelineLayers(l map[string]float64, tl jobTimeline) {
	l["campaign.queue_wait_s"] = since(tl.submitAt, tl.runningAt)
	if len(tl.chunksAt) == 0 {
		return
	}
	l["campaign.first_chunk_s"] = since(tl.runningAt, tl.chunksAt[0])
	var gaps []float64
	for i := 1; i < len(tl.chunksAt); i++ {
		gaps = append(gaps, 1e3*since(tl.chunksAt[i-1], tl.chunksAt[i]))
	}
	l["campaign.chunk_gap_p50_ms"] = median(gaps)
	l["campaign.finalize_s"] = since(tl.chunksAt[len(tl.chunksAt)-1], tl.doneAt)
}

// runSchedulerJob times campaign.Scheduler.Submit to the job's final done
// event on a fresh state dir, one local worker: the campaignd path.
func runSchedulerJob(ctx context.Context, a childArgs, cs core.CampaignSpec, res *childResult) error {
	blobDir := filepath.Join(a.dir, "blobs")
	cfg := campaign.Config{Dir: a.dir, Workers: 1}
	var ts *timedStore
	if a.trace {
		ds, err := fabric.NewDirStore(blobDir)
		if err != nil {
			return err
		}
		ts = &timedStore{BlobStore: ds}
		cfg.Blobs = ts // the same DirStore the scheduler defaults to, timed
	}
	sched, err := campaign.New(cfg)
	if err != nil {
		return err
	}
	defer sched.Stop(10 * time.Second)
	spec := campaign.JobSpec{Kind: campaign.KindSEU, SEU: &cs}
	tl, err := runJobEvents(ctx, sched, spec)
	if err != nil {
		return err
	}
	store, err := fabric.NewDirStore(blobDir)
	if err != nil {
		return err
	}
	if err := finishJob(sched, spec, tl, store, res); err != nil {
		return err
	}
	if a.trace {
		timelineLayers(res.Layers, tl)
		putMs, _, putBytes := ts.stats()
		res.Layers["campaign.blob_put_ms_p50"] = median(putMs)
		res.Layers["campaign.blob_puts"] = float64(len(putMs))
		res.Layers["campaign.blob_bytes"] = float64(putBytes)
	}
	return nil
}

// runFabricJob brings up a coordinator (fabric.Handler plus the embedded
// fabric.BlobHandler over a DirStore) on a loopback port and two
// in-process fabric.RunWorker nodes, waits for both to register — that is
// the set-up — then times the scheduler job the coordinator leases out.
func runFabricJob(ctx context.Context, a childArgs, cs core.CampaignSpec, res *childResult) error {
	t0 := time.Now()
	dirStore, err := fabric.NewDirStore(filepath.Join(a.dir, "blobs"))
	if err != nil {
		return err
	}
	var store fabric.BlobStore = dirStore
	ts := &timedStore{BlobStore: dirStore}
	if a.trace {
		store = ts
	}
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{Store: store})
	if err != nil {
		return err
	}
	defer coord.Close()
	tap := &fabricTap{inner: fabric.Handler(coord), timing: a.trace, registered: make(chan struct{}, fabricWorkers)}
	mux := http.NewServeMux()
	mux.Handle("/api/v1/fabric/", tap)
	bh := fabric.BlobHandler(store)
	mux.Handle("/api/v1/blobs", bh)
	mux.Handle("/api/v1/blobs/", bh)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	var srvWG sync.WaitGroup
	srvWG.Add(1)
	go func() {
		defer srvWG.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	defer func() {
		srv.Close()
		srvWG.Wait()
	}()
	sched, err := campaign.New(campaign.Config{Dir: a.dir, Workers: 1, Blobs: store, Coordinator: coord})
	if err != nil {
		return err
	}
	defer sched.Stop(10 * time.Second)

	wctx, stopWorkers := context.WithCancel(ctx)
	var workersWG sync.WaitGroup
	defer func() {
		stopWorkers()
		workersWG.Wait()
	}()
	workerErrs := make(chan error, fabricWorkers)
	for i := 0; i < fabricWorkers; i++ {
		workersWG.Add(1)
		go func(i int) {
			defer workersWG.Done()
			err := fabric.RunWorker(wctx, fabric.WorkerOptions{
				Coordinator: "http://" + ln.Addr().String(),
				Name:        fmt.Sprintf("bench-%d", i),
				Slots:       1,
				Poll:        a.poll,
			})
			if err != nil && wctx.Err() == nil {
				workerErrs <- err
			}
		}(i)
	}
	register := time.NewTimer(30 * time.Second)
	defer register.Stop()
	for n := 0; n < fabricWorkers; n++ {
		select {
		case <-tap.registered:
		case err := <-workerErrs:
			return fmt.Errorf("fabric worker: %w", err)
		case <-register.C:
			return fmt.Errorf("fabric workers did not register within 30s")
		}
	}
	res.BringupS = since(t0, time.Now())

	tap.mu.Lock()
	emptyBefore := tap.leaseEmpty
	tap.mu.Unlock()
	spec := campaign.JobSpec{Kind: campaign.KindSEU, SEU: &cs}
	tl, err := runJobEvents(ctx, sched, spec)
	if err != nil {
		return err
	}
	if err := finishJob(sched, spec, tl, dirStore, res); err != nil {
		return err
	}
	st := coord.Stats()
	if a.trace {
		l := res.Layers
		timelineLayers(l, tl)
		tap.mu.Lock()
		l["fabric.register_ms"] = median(tap.registerMs)
		if !tap.firstLease.IsZero() {
			l["fabric.first_lease_s"] = since(tl.submit, tap.firstLease)
		}
		l["fabric.lease_ms_p50"] = median(tap.leaseMs)
		l["fabric.lease_empty"] = float64(tap.leaseEmpty - emptyBefore)
		l["fabric.complete_ms_p50"] = median(tap.completeMs)
		workerErrors := tap.workerErrors
		tap.mu.Unlock()
		putMs, getMs, putBytes := ts.stats()
		l["fabric.blob_put_ms_p50"] = median(putMs)
		l["fabric.blob_get_ms_p50"] = median(getMs)
		l["fabric.blob_bytes"] = float64(putBytes)
		l["fabric.leases_issued"] = float64(st.LeasesIssued)
		l["fabric.leases_expired"] = float64(st.LeasesExpired)
		l["fabric.leases_stolen"] = float64(st.LeasesStolen)
		l["fabric.commit_rejects"] = float64(st.CommitRejects)
		if st.LeasesIssued > 0 {
			l["fabric.error_rate"] = float64(uint64(workerErrors)+st.CommitRejects+st.LeasesExpired) / float64(st.LeasesIssued)
		}
	}
	return nil
}

// resetPeakRSS sets the process's peak RSS (VmHWM) to its current RSS.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // Linux; elsewhere VmHWM is not read either
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB, or 0
// where /proc is not available.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

package seu

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/board"
	"repro/internal/device"
)

// Parallel chunk execution. RunChunks is the one worker pool every sweep
// runs on — Run's one-shot path and campaignd's local scheduler alike. The
// base runner's board plus workers-1 replicas cloned from it pull chunks
// from a shared cursor. Because every injection starts from canonical board
// state (board.ResetCampaignState) and samples by per-bit hash, neither
// chunk scheduling nor the replica a chunk lands on can influence any
// outcome.

// chunksPerWorker over-decomposes Run's address space so a worker stuck in
// a failure-dense chunk doesn't serialize the tail of the campaign.
const chunksPerWorker = 4

// minInjectionsPerWorker is the smallest expected per-worker injection
// count worth a board clone; smaller campaigns run with fewer workers
// than requested.
const minInjectionsPerWorker = 64

// RunChunks executes specs on base's board plus workers-1 replicas cloned
// from it before any chunk runs (cloning while the base board is
// mid-injection would snapshot a dirty replica). Each completed chunk is
// handed to commit, possibly concurrently from several workers; busy, if
// non-nil, sees +1/-1 around every chunk execution.
//
// No new chunk starts once stop is closed, ctx is cancelled or a chunk or
// commit has failed; chunks already in flight finish and are committed
// (a cancelled ctx aborts them between injections instead). RunChunks
// returns the first error, else ctx's error if cancellation left specs
// unrun, else nil — so a nil return with specs unrun means stop closed.
// Only runners whose chunks all completed park their replicas for reuse.
func RunChunks(ctx context.Context, base *ChunkRunner, specs []ChunkSpec, workers int, stop <-chan struct{}, busy func(delta int), commit func(ChunkSpec, *ChunkResult) error) error {
	if len(specs) == 0 {
		return nil
	}
	workers = max(1, min(workers, len(specs)))
	if busy == nil {
		busy = func(int) {}
	}
	runners := make([]*ChunkRunner, workers)
	runners[0] = base
	for i := 1; i < workers; i++ {
		runners[i] = base.clone(base.opts.Seed + int64(i))
	}

	var (
		next     atomic.Int64 // next spec to claim; a claimed spec completes or fails
		errOnce  sync.Once
		firstErr error
		failed   atomic.Bool
		wg       sync.WaitGroup
	)
	halted := func() bool {
		select {
		case <-stop:
			return true
		default:
			return failed.Load() || ctx.Err() != nil
		}
	}
	for _, r := range runners {
		wg.Add(1)
		go func(r *ChunkRunner) {
			defer wg.Done()
			for !halted() {
				i := next.Add(1) - 1
				if i >= int64(len(specs)) {
					break
				}
				cs := specs[i]
				busy(1)
				cr, err := r.Run(ctx, cs)
				busy(-1)
				if err == nil {
					err = commit(cs, cr)
				}
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
			r.release()
		}(r)
	}
	wg.Wait()
	if firstErr == nil && next.Load() < int64(len(specs)) {
		return ctx.Err()
	}
	return firstErr
}

// runRange executes the injection loop over bit addresses [lo, hi) on the
// runner's board, accumulating into acc. Cancellation is checked before
// every injection (and periodically across skipped spans), so a cancelled
// campaign stops with the board between iterations, never mid-repair. A
// pending vector batch always flushes inside the range that enqueued it,
// so chunk results stay a pure function of their spec.
func (r *ChunkRunner) runRange(ctx context.Context, lo, hi int64, acc *ChunkResult) error {
	if r.vr != nil {
		return r.runPlannedRange(ctx, lo, hi, acc)
	}
	opts := r.opts
	g := r.bd.Geometry()
	for a := device.BitAddr(lo); int64(a) < hi; a++ {
		// The sampling skip path costs one hash per address; amortize the
		// cancellation check over skipped spans so it stays invisible there.
		if a&0xFFF == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !selected(opts, a) {
			continue
		}
		info := g.Classify(a)
		acc.Injections++
		acc.InjectionsByKind[info.Kind]++
		acc.SimulatedTimeNs += board.InjectLoopTime.Nanoseconds()
		if opts.FastPadSkip && (info.Kind == device.KindPad || info.Kind == device.KindExtra) {
			continue // provably benign: no decoded behaviour depends on it
		}
		if r.tri.inert(a) {
			acc.TriageSkipped++
			continue // provably outside every observed output's cone
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := injectOne(r.bd, r.golden, a, info.Kind, stimulusSeed(opts.Seed, a), opts, acc, r.fs, r.fast); err != nil {
			return err
		}
	}
	return nil
}

// runPlannedRange is the vector-kernel image of runRange: instead of
// re-classifying every address, it walks the pre-plan's entries for
// [lo, hi) and dispatches on each entry's precomputed disposition. The
// planner never runs here — classification happened exactly once per
// sampled bit, in buildPrePlan.
func (r *ChunkRunner) runPlannedRange(ctx context.Context, lo, hi int64, acc *ChunkResult) error {
	opts, vr := r.opts, r.vr
	entries := r.plan.window(lo, hi)
	for i := range entries {
		e := &entries[i]
		// Retired entries (pad/triage/benign) cost no board work; amortize
		// their cancellation checks like the scalar loop does for skips.
		if i&0xFF == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		acc.Injections++
		acc.InjectionsByKind[e.kind]++
		acc.SimulatedTimeNs += board.InjectLoopTime.Nanoseconds()
		switch e.act {
		case planPad, planBenign:
			// Provably benign without board activity.
		case planTriage:
			acc.TriageSkipped++
		case planVector:
			if err := ctx.Err(); err != nil {
				return err
			}
			vr.enqueueVector(e)
			if vr.shouldFlush() {
				vr.flush(opts, acc, r.fast)
			}
		case planCarry:
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := vr.enqueueCarry(r.bd, r.golden, e, opts, acc, r.fs); err != nil {
				return err
			}
			if vr.shouldFlush() {
				vr.flush(opts, acc, r.fast)
			}
		case planScalar:
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := injectOne(r.bd, r.golden, e.addr, e.kind, e.seed, opts, acc, r.fs, r.fast); err != nil {
				return err
			}
		}
	}
	vr.flush(opts, acc, r.fast)
	return nil
}

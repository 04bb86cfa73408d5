package seu

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
)

// Checkpoint-format pin. A chunk's CanonicalJSON is what campaignd persists
// and content-hashes and what the fabric coordinator re-validates a
// worker's claim against, so its bytes are a storage format: a silent
// change orphans every resumable state directory and makes honest
// duplicate completions look divergent. Regenerate (only when the
// simulator's semantics change on purpose) with:
//
//	go test ./internal/seu -run TestChunkCanonicalJSONGolden -update

var update = flag.Bool("update", false, "rewrite golden chunk files under testdata/")

// goldenChunkOptions is the pinned campaign: MULT 12 on Tiny, 5% sampled,
// split into seven chunks.
func goldenChunkOptions(k Kernel) Options {
	opts := DefaultOptions()
	opts.Sample = 0.05
	opts.Seed = 3
	opts.Workers = 1
	opts.Kernel = k
	return opts
}

func TestChunkCanonicalJSONGolden(t *testing.T) {
	spec, err := designs.ByName("MULT 12")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kernel{KernelAuto, KernelVector} {
		t.Run(k.String(), func(t *testing.T) {
			bd := boardFor(t, spec.Build(), device.Tiny())
			opts := goldenChunkOptions(k)
			r, err := NewChunkRunner(bd, opts)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			for _, cs := range PlanChunks(bd.Geometry(), opts, 7) {
				cr, err := r.Run(context.Background(), cs)
				if err != nil {
					t.Fatal(err)
				}
				b, err := cr.CanonicalJSON()
				if err != nil {
					t.Fatal(err)
				}
				got.Write(b)
				got.WriteByte('\n')
			}
			path := filepath.Join("testdata", fmt.Sprintf("chunks-MULT12-tiny-%s.golden", k))
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("chunk CanonicalJSON diverged from %s:\ngot:\n%swant:\n%s", path, got.Bytes(), want)
			}
		})
	}
}

// TestPlanChunksTiles pins the chunk plan's shape: consecutive indices and
// ranges that cover [0, limit) exactly, with no gap or overlap, at any chunk
// budget and with or without a MaxBits cap.
func TestPlanChunksTiles(t *testing.T) {
	g := device.Tiny()
	for _, maxBits := range []int64{0, 1500} {
		opts := goldenChunkOptions(KernelAuto)
		opts.MaxBits = maxBits
		limit, _ := selectionPlan(opts, g.TotalBits())
		if maxBits > 0 && limit >= g.TotalBits() {
			t.Fatalf("MaxBits %d did not shorten the sweep (limit %d)", maxBits, limit)
		}
		for _, maxChunks := range []int{1, 7, int(limit) + 5} {
			plan := PlanChunks(g, opts, maxChunks)
			if len(plan) < 1 || len(plan) > maxChunks {
				t.Fatalf("maxBits %d, maxChunks %d: %d chunks", maxBits, maxChunks, len(plan))
			}
			next := int64(0)
			for i, cs := range plan {
				if cs.Index != i || cs.Lo != next || cs.Hi <= cs.Lo {
					t.Fatalf("maxBits %d, maxChunks %d: chunk %d = %+v, want index %d starting at %d",
						maxBits, maxChunks, i, cs, i, next)
				}
				next = cs.Hi
			}
			if next != limit {
				t.Fatalf("maxBits %d, maxChunks %d: plan ends at %d, want %d", maxBits, maxChunks, next, limit)
			}
		}
	}
}

// TestRunChunksStops pins the shared pool's halting rules: a closed stop
// channel lets in-flight chunks commit and returns nil with chunks unrun, a
// failed commit stops the pool with that error, and a cancelled context
// reports its error.
func TestRunChunksStops(t *testing.T) {
	spec, err := designs.ByName("MULT 12")
	if err != nil {
		t.Fatal(err)
	}
	bd := boardFor(t, spec.Build(), device.Tiny())
	opts := goldenChunkOptions(KernelAuto)
	specs := PlanChunks(bd.Geometry(), opts, 8)
	const workers = 2
	newRunner := func() *ChunkRunner {
		r, err := NewChunkRunner(bd, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	var mu sync.Mutex
	commits := 0
	stop := make(chan struct{})
	err = RunChunks(context.Background(), newRunner(), specs, workers, stop, nil, func(ChunkSpec, *ChunkResult) error {
		mu.Lock()
		defer mu.Unlock()
		if commits++; commits == 1 {
			close(stop)
		}
		return nil
	})
	if err != nil || commits < 1 || commits > workers {
		t.Fatalf("stop: err %v after %d commits, want nil after 1..%d", err, commits, workers)
	}

	boom := errors.New("boom")
	err = RunChunks(context.Background(), newRunner(), specs, workers, nil, nil, func(ChunkSpec, *ChunkResult) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed commit: err %v, want %v", err, boom)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = RunChunks(ctx, newRunner(), specs, workers, nil, nil, func(ChunkSpec, *ChunkResult) error {
		t.Error("chunk committed under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: err %v, want %v", err, context.Canceled)
	}
}

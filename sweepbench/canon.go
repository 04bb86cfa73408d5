package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fabric"
	"repro/internal/seu"
)

// canonReport is the part of a campaign's outcome that must not depend on
// the path, kernel or worker count that produced it: counters, per-kind
// maps, modelled time and the sensitive-bit list. Wall time, kernel name
// and the fastsim cycle diagnostics are deliberately absent, so the scalar
// sweep oracle and the vector kernel hash identically.
type canonReport struct {
	Design           string         `json:"design"`
	Geometry         string         `json:"geometry"`
	Slices           int            `json:"slices"`
	Injections       int64          `json:"injections"`
	Failures         int64          `json:"failures"`
	Persistent       int64          `json:"persistent"`
	TriageSkipped    int64          `json:"triage_skipped"`
	InjectionsByKind seu.KindCounts `json:"injections_by_kind"`
	FailuresByKind   seu.KindCounts `json:"failures_by_kind"`
	SimulatedTimeNs  int64          `json:"simulated_time_ns"`
	Bits             []canonBit     `json:"bits"`
}

type canonBit struct {
	Addr       int64  `json:"addr"`
	Kind       string `json:"kind"`
	Persistent bool   `json:"persistent"`
	FirstError int    `json:"first_error"`
	Outputs    []int  `json:"outputs"`
}

// counts are the report counters the metrics are based on.
type counts struct {
	Injections    int64 `json:"injections"`
	Failures      int64 `json:"failures"`
	TriageSkipped int64 `json:"triage_skipped"`
	// Pad counts the pad and extra bits FastPadSkip retires.
	Pad             int64   `json:"pad"`
	CyclesSimulated int64   `json:"cycles_simulated"`
	CyclesSkipped   int64   `json:"cycles_skipped"`
	SimulatedTimeS  float64 `json:"simulated_time_s"`
}

// simulated is the number of injections that reached the planner or the
// board: everything except pad, extra and triage-retired bits. Bits the
// planner proves benign are included, since nothing outside the seu
// package can tell them apart.
func (c counts) simulated() int64 { return c.Injections - c.TriageSkipped - c.Pad }

func canonFromReport(rep *seu.Report) canonReport {
	cr := canonReport{
		Design: rep.Design, Geometry: rep.Geom.String(), Slices: rep.SlicesUsed,
		Injections: rep.Injections, Failures: rep.Failures, Persistent: rep.Persistent,
		TriageSkipped:    rep.TriageSkipped,
		InjectionsByKind: rep.InjectionsByKind, FailuresByKind: rep.FailuresByKind,
		SimulatedTimeNs: rep.SimulatedTime.Nanoseconds(),
	}
	cr.Bits = canonBits(rep.SensitiveBits)
	return cr
}

func countsFromReport(rep *seu.Report) counts {
	return counts{
		Injections: rep.Injections, Failures: rep.Failures, TriageSkipped: rep.TriageSkipped,
		Pad:             rep.InjectionsByKind[device.KindPad] + rep.InjectionsByKind[device.KindExtra],
		CyclesSimulated: rep.CyclesSimulated, CyclesSkipped: rep.CyclesSkipped,
		SimulatedTimeS: rep.SimulatedTime.Seconds(),
	}
}

func canonBits(bits []seu.BitRecord) []canonBit {
	out := make([]canonBit, len(bits))
	for i, b := range bits {
		out[i] = canonBit{
			Addr: int64(b.Addr), Kind: b.Kind.String(), Persistent: b.Persistent,
			FirstError: b.FirstErrorCycle, Outputs: b.FailedOutputs,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// canonFromJob rebuilds a job's canonical report from its persisted report
// bytes plus the chunk results in its blob store: the persisted report
// carries the counters, the chunk payloads carry the sensitive bits.
func canonFromJob(reportJSON []byte, store fabric.BlobStore, chunks int) (canonReport, counts, error) {
	var jr core.CampaignReport
	if err := json.Unmarshal(reportJSON, &jr); err != nil {
		return canonReport{}, counts{}, fmt.Errorf("decoding job report: %w", err)
	}
	simNs := int64(math.Round(jr.SimulatedTimeSec * 1e9))
	cr := canonReport{
		Design: jr.Design, Geometry: jr.Geometry, Slices: jr.Slices,
		Injections: jr.Injections, Failures: jr.Failures, Persistent: jr.Persistent,
		TriageSkipped:    jr.TriageSkipped,
		InjectionsByKind: jr.InjectionsByKind, FailuresByKind: jr.FailuresByKind,
		SimulatedTimeNs: simNs,
	}
	c := counts{
		Injections: jr.Injections, Failures: jr.Failures, TriageSkipped: jr.TriageSkipped,
		Pad:             jr.InjectionsByKind[device.KindPad] + jr.InjectionsByKind[device.KindExtra],
		CyclesSimulated: jr.CyclesSimulated, CyclesSkipped: jr.CyclesSkipped,
		SimulatedTimeS: jr.SimulatedTimeSec,
	}
	results, err := chunkResults(store, chunks)
	if err != nil {
		return cr, c, err
	}
	var bits []seu.BitRecord
	for _, r := range results {
		bits = append(bits, r.Bits...)
	}
	cr.Bits = canonBits(bits)
	return cr, c, nil
}

// chunkResults reads every chunk payload in store and returns exactly one
// result per chunk index 0..chunks-1. Two different results for one index
// would be a determinism violation and fail the check.
func chunkResults(store fabric.BlobStore, chunks int) ([]*seu.ChunkResult, error) {
	infos, err := store.List()
	if err != nil {
		return nil, fmt.Errorf("listing chunk blobs: %w", err)
	}
	byIndex := make(map[int]string)
	out := make([]*seu.ChunkResult, chunks)
	for _, info := range infos {
		b, err := store.Get(info.Key)
		if err != nil {
			return nil, fmt.Errorf("reading chunk blob: %w", err)
		}
		var cp fabric.ChunkPayload
		if err := json.Unmarshal(b, &cp); err != nil || cp.Result == nil {
			return nil, fmt.Errorf("decoding chunk blob %s: %v", info.Key, err)
		}
		i := cp.Spec.Index
		if i < 0 || i >= chunks {
			return nil, fmt.Errorf("chunk blob %s has index %d outside the %d-chunk plan", info.Key, i, chunks)
		}
		if k, dup := byIndex[i]; dup && k != info.Key {
			return nil, fmt.Errorf("chunk %d has two different results (%s, %s)", i, k, info.Key)
		}
		byIndex[i] = info.Key
		out[i] = cp.Result
	}
	for i, r := range out {
		if r == nil {
			return nil, fmt.Errorf("chunk %d has no stored result", i)
		}
	}
	return out, nil
}

// hash is the hex SHA-256 of the canonical report's JSON form.
func (cr canonReport) hash() string {
	b, err := json.Marshal(cr)
	if err != nil {
		// canonReport is a closed struct of marshalable fields.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkModelledTime asserts the modelled SLAAC-1V test time is exactly one
// injection loop per injection — the figure behind the paper's "entire
// bitstream in ~20 minutes".
func checkModelledTime(c counts) error {
	want := (time.Duration(c.Injections) * board.InjectLoopTime).Seconds()
	if c.SimulatedTimeS != want {
		return fmt.Errorf("simulated time %.6f s, want %d injections x %v = %.6f s",
			c.SimulatedTimeS, c.Injections, board.InjectLoopTime, want)
	}
	return nil
}

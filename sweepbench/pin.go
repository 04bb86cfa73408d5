package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/seu"
)

// printPins prints the workload's pinned report hashes for every campaign
// seed it can run (1..pinSeeds, or its fixed seed) as one JSON object,
// workload name → seed → hash: the shape of pins.json.
func printPins(w workload, stdout io.Writer) error {
	seeds := []int64{w.seed}
	if w.seed == 0 {
		seeds = seeds[:0]
		for seed := int64(1); seed <= pinSeeds; seed++ {
			seeds = append(seeds, seed)
		}
	}
	hashes := make(map[string]string, len(seeds))
	for _, seed := range seeds {
		h, err := pinHash(w, seed)
		if err != nil {
			return err
		}
		hashes[strconv.FormatInt(seed, 10)] = h
		fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w.name, seed, h)
	}
	b, err := json.MarshalIndent(map[string]map[string]string{w.name: hashes}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(b))
	return err
}

// pinHash runs the workload's campaign for one seed twice on fresh
// placements — once on the scalar full-sweep kernel, the reference oracle,
// and once on the vector kernel the benchmark times — and returns the
// canonical report hash only when both agree.
func pinHash(w workload, seed int64) (string, error) {
	var got [2]string
	for i, kernel := range []string{"sweep", "vector"} {
		cs := w.spec(seed, kernel)
		bd, _, err := w.setUp(cs)
		if err != nil {
			return "", err
		}
		opts, err := options(cs)
		if err != nil {
			return "", err
		}
		rep, err := seu.RunContext(context.Background(), bd, opts)
		if err != nil {
			return "", err
		}
		if err := checkModelledTime(countsFromReport(rep)); err != nil {
			return "", err
		}
		got[i] = canonFromReport(rep).hash()
	}
	if got[0] != got[1] {
		return "", fmt.Errorf("%s seed %d: vector kernel report %s differs from the sweep oracle's %s", w.name, seed, got[1], got[0])
	}
	return got[0], nil
}

// Command sweepbench is the repository's layered sweep benchmark. It runs one
// named workload for a fixed time, checks every campaign's report against a
// pinned hash, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON object on the last line of stdout. See
// README.md in this directory for the workloads and every metric.
//
//	bash sweepbench/run.sh --workload fabric-lfsr72 --seed 1 --seconds 40 --trace 0
//
// The campaigns run in a child process (this binary, re-executed) that
// times iterations back to back after an untimed warm-up. Each campaign
// places its design afresh and gets a fresh state dir, so it starts cold
// the way a new seusim or campaignd user's campaign does.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"
)

// childEnv marks a re-executed child process.
const childEnv = "SWEEPBENCH_CHILD"

//go:embed pins.json
var embeddedPins []byte

type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	gomaxprocs int
	poll       time.Duration
	scale      string
	pins       string // pins file; "" = the embedded pins.json
	work       string // parent of the per-run state dir
	pin        bool   // print oracle-checked pins instead of benchmarking
}

func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("sweepbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload name")
	fs.Int64Var(&c.seed, "seed", 1, "input seed (mapped onto the pinned campaign seeds)")
	fs.Float64Var(&c.seconds, "seconds", 40, "measuring time")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	fs.IntVar(&c.gomaxprocs, "gomaxprocs", 1, "GOMAXPROCS of every benchmark process")
	fs.DurationVar(&c.poll, "poll", 2*time.Millisecond, "fabric worker idle poll interval (WorkerOptions.Poll)")
	fs.StringVar(&c.scale, "scale", "full", "workload scale: full, or test for the self-test")
	fs.StringVar(&c.pins, "pins", "", "pinned report hashes (default: the embedded pins.json)")
	fs.StringVar(&c.work, "work", ".bench_build", "directory for per-run state")
	fs.BoolVar(&c.pin, "pin", false, "compute the workload's pinned hashes with the scalar sweep oracle and print them")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	c.trace = *trace != 0
	if c.gomaxprocs < 1 {
		return c, fmt.Errorf("--gomaxprocs must be at least 1")
	}
	return c, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is main without the exit, shared with the self-test.
func run(args []string, stdout io.Writer) int {
	if os.Getenv(childEnv) != "" {
		return childMain(args, stdout)
	}
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(cfg.gomaxprocs)
	ws, err := workloads(cfg.scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		return 2
	}
	w, ok := ws[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "sweepbench: unknown workload %q (have %v)\n", cfg.workload, workloadNames(ws))
		return 2
	}
	if cfg.pin {
		if err := printPins(w, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "sweepbench:", err)
			return 1
		}
		return 0
	}
	out, err := bench(context.Background(), cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// childMain runs iterations of cold campaigns and prints one childResult
// line per campaign (see childLoop).
func childMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("sweepbench-child", flag.ContinueOnError)
	stepList := fs.String("steps", "", "comma-separated kind:trace steps of one iteration")
	name := fs.String("workload", "", "workload")
	scale := fs.String("scale", "full", "workload scale")
	seed := fs.Int64("seed", 1, "campaign seed")
	poll := fs.Duration("poll", 2*time.Millisecond, "fabric worker poll")
	dir := fs.String("dir", "", "state dir")
	until := fs.Int64("until", 0, "deadline (Unix nanoseconds) for starting another iteration")
	minIters := fs.Int("min-iters", 2, "iterations to run whatever the deadline, the warm-up included")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws, err := workloads(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench child:", err)
		return 2
	}
	w, ok := ws[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "sweepbench child: unknown workload %q\n", *name)
		return 2
	}
	steps, err := parseSteps(*stepList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench child:", err)
		return 2
	}
	loop := childLoop{w: w, seed: *seed, poll: *poll, dir: *dir, steps: steps,
		until: time.Unix(0, *until), minIters: *minIters}
	if err := loop.run(context.Background(), stdout); err != nil {
		return 1
	}
	return 0
}

// loadPins returns the pinned canonical report hash for every (workload,
// campaign seed): workload name → decimal seed → hex SHA-256.
func loadPins(path string) (map[string]map[string]string, error) {
	b := embeddedPins
	if path != "" {
		var err error
		if b, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	var pins map[string]map[string]string
	if err := json.Unmarshal(b, &pins); err != nil {
		return nil, fmt.Errorf("decoding pins: %w", err)
	}
	return pins, nil
}

func pinFor(pins map[string]map[string]string, w workload, seed int64) (string, error) {
	h := pins[w.name][strconv.FormatInt(seed, 10)]
	if h == "" {
		return "", fmt.Errorf("no pinned hash for %s at campaign seed %d", w.name, seed)
	}
	return h, nil
}

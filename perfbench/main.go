// Command perfbench is the lab's benchmark: one program, three workloads
// (flood, scan, trials), end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. It drives the simulator only through
// its public functions, generates every input from -seed, checks every op's
// output, and prints one JSON result as the last line of standard output.
//
//	bash perfbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
//
// or, from this directory,
//
//	go run . -workload flood -seed 1 -seconds 10 -trace 1 -cpuprofile flood.cpu
//
// This file is the only one that reads the wall clock (nanotime); every
// other file times through it. See README.md for the metrics and workloads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// epoch anchors the benchmark's monotonic clock.
var epoch = time.Now() //tspuvet:allow walltime: the benchmark measures host time; no simulation output depends on it

// nanotime is host nanoseconds since the benchmark started.
func nanotime() int64 {
	return int64(time.Since(epoch)) //tspuvet:allow walltime: the benchmark measures host time; no simulation output depends on it
}

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"flood":  runFlood,
	"scan":   runScan,
	"trials": runTrials,
}

// host is the fingerprint stamped on every result, so numbers from
// different machines are never compared silently.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint(commit string) host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints its result, returning
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: flood, scan or trials")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Float64("seconds", 10, "host seconds to measure (a traced run splits them between its untraced and traced phases)")
	traced := fs.Int("trace", 0, "1 = traced run: report the per-layer metrics and write the spans")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .perfbench_build/trace-<workload>-<seed>.jsonl)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	commit := fs.String("commit", "unknown", "commit the binary was built from, for the host fingerprint")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *secs <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload flood|scan|trials, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *secs, trace: *traced == 1}
	h := fingerprint(*commit)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	o, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	defs, values := endToEnd, o.e2e
	if cfg.trace {
		defs, values = perLayer, o.layer
		values["fail_ratio"] = ratio(float64(o.failed), float64(o.attempted))
	}
	metrics, err := fill(defs, values)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.trace {
		path := *traceOut
		if path == "" {
			path = fmt.Sprintf(".perfbench_build/trace-%s-%d.jsonl", *name, *seed)
		}
		header := map[string]any{"workload": *name, "seed": *seed, "host": h}
		if err := o.tr.writeFile(path, header); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(o.tr.spans), path)
		for _, s := range o.tr.summary() {
			fmt.Fprintf(stdout, "span %-22s n=%-7d total=%10.3fms self=%10.3fms\n",
				s.name, s.count, float64(s.total)/1e6, float64(s.selfNs)/1e6)
		}
	}

	hj, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host: %s\n", hj)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-34s %16.4f %-6s %-6s %s\n", d.name, metrics[d.name].Value, d.unit, d.better, d.layer)
	}
	for _, p := range o.problems {
		fmt.Fprintf(stdout, "check failed: %s\n", p)
	}
	res := result{
		Correct:   o.failed == 0 && len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("write heap profile %s: %w", path, err)
	}
	return f.Close()
}

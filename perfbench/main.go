// Command perfbench runs one repetition of one benchmark workload in its
// own process and prints what it measured as one JSON line. run.py
// builds it, starts a fresh process for every repetition, and turns the
// repetitions into the benchmark's metrics.
//
// Modes:
//
//	timed   one exp.Run of the workload's measured window
//	setup   the same config with a 1 µs window: topology and connect cost
//	traced  a timed run under a CPU profile, attributed per layer
//	layers  timed drivers of single layers' public functions
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"nvmeoaf/internal/exp"
)

// profileHz is the CPU sampling rate the traced run asks for: 10x the
// pprof default, so a one-second run gives enough samples per layer.
// Setting it before pprof.StartCPUProfile makes StartCPUProfile print
// that the rate is already set; sampling goes on at this rate, capped
// by the kernel's timer tick.
const profileHz = 1000

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	mode := flag.String("mode", "timed", "timed, setup, traced or layers")
	spans := flag.String("spans", "", "file the traced and layers modes write their spans to")
	flag.Parse()
	rec, err := run(*name, *seed, *mode, *spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d mode %s: %v\n", *name, *seed, *mode, err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, mode, spanFile string) (*record, error) {
	rec := &record{Workload: name, Seed: seed, Mode: mode}
	tr := newTracer()
	switch mode {
	case "layers":
		rec.Layers = layerDrivers(tr, seed)
		return rec, tr.write(spanFile)
	case "timed", "setup", "traced":
	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
	cfg, err := lookup(name, seed, mode == "setup")
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if mode == "traced" {
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	span := tr.start("exp.run")
	before := readHost()
	res, err := exp.Run(cfg)
	after := readHost()
	tr.end(span)
	if mode == "traced" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	rec.fill(before, after)
	rec.Sim = simOf(res)
	rec.Checks = checks(res, rec.Sim, mode == "setup")
	if mode == "traced" {
		shares, err := cpuShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		rec.Layers = shares
		for k, v := range runLayers(cfg, res, rec.Sim) {
			rec.Layers[k] = v
		}
		if err := tr.write(spanFile); err != nil {
			return nil, err
		}
	}
	// res is dead from here on, so the collection below keeps only what
	// the run left behind.
	rec.HeapRetainMiB = retainedHeapMiB()
	return rec, nil
}

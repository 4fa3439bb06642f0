package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/serve/cache"
	"repro/internal/store"
	"repro/internal/sweep"
)

// workerSpec is what the benchmark hands a worker process on stdin.
type workerSpec struct {
	// Kind is "probe" (set up, report ready, exit), "sweep" (sweep.Run)
	// or "compose" (the layer-by-layer composition).
	Kind      string    `json:"kind"`
	Sweep     sweepSpec `json:"sweep"`
	StoreDir  string    `json:"store_dir"`
	Trace     bool      `json:"trace,omitempty"`
	Oracle    bool      `json:"oracle,omitempty"`
	SpansPath string    `json:"spans_path,omitempty"`
}

// workerReply is the worker's one JSON line after "ready".
type workerReply struct {
	WallS       float64            `json:"wall_s"`
	PeakRSSMB   float64            `json:"peak_rss_mb"`
	Results     []sweep.Result     `json:"results"`
	StoreErrors int                `json:"store_errors,omitempty"`
	Cache       cache.Stats        `json:"cache"`
	Counts      map[string]float64 `json:"counts,omitempty"`
	Layers      []layerRow         `json:"layers,omitempty"`
	JobWallS    float64            `json:"job_wall_s,omitempty"`
	OracleRuns  int                `json:"oracle_runs,omitempty"`
	Mismatches  []string           `json:"mismatches,omitempty"`
}

// readyLine marks the end of a worker's set-up: the sweep starts right
// after it is written.
const readyLine = "ready"

// workerMain is the worker process: one fresh process per round, so
// every round pays the process's own set-up and starts with cold caches,
// as a sweep started from the command line does.
func workerMain() int {
	if err := runWorker(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	return 0
}

func runWorker() error {
	var spec workerSpec
	if err := json.NewDecoder(os.Stdin).Decode(&spec); err != nil {
		return err
	}
	opt, err := spec.Sweep.options()
	if err != nil {
		return err
	}
	st, err := store.Open(spec.StoreDir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	cc := sweep.NewCircuitCache(0)
	if _, err := fmt.Fprintln(os.Stdout, readyLine); err != nil {
		return err
	}
	if spec.Kind == "probe" {
		return nil
	}

	var reply workerReply
	start := time.Now()
	switch spec.Kind {
	case "sweep":
		opt.Cache = cc
		opt.Store = st
		sum, err := sweep.Run(context.Background(), opt)
		if err != nil {
			return err
		}
		reply.WallS = time.Since(start).Seconds()
		reply.Results = sum.Results
		reply.StoreErrors = sum.StoreErrors
		reply.Cache = cc.Stats()
	case "compose":
		var tr *tracer
		if spec.Trace {
			tr = newTracer()
		}
		cp := newComposer(opt, st, tr, spec.Oracle)
		res, err := cp.run()
		if err != nil {
			return err
		}
		reply.WallS = time.Since(start).Seconds()
		reply.Results = res
		reply.Counts = cp.counts
		reply.OracleRuns = cp.oracleRuns
		reply.Mismatches = cp.mismatches
		if tr != nil {
			reply.Layers, reply.JobWallS = tr.selfTimes()
			if spec.SpansPath != "" {
				if err := tr.writeFile(spec.SpansPath); err != nil {
					return err
				}
			}
		}
	default:
		return fmt.Errorf("unknown worker kind %q", spec.Kind)
	}
	if reply.PeakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(&reply)
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// suiteResult is <out>/sysbench.json: every workload's metrics from
// both passes under one schema — the file `sysbench compare` reads.
type suiteResult struct {
	Format    string                     `json:"format"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

const suiteFormat = "sysbench-1"

// workloadResult merges a workload's untraced pass (end-to-end
// metrics) with its traced pass (per-layer metrics).
type workloadResult struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// runCmd runs every workload, untraced then traced, each pass in a
// fresh child process so no pass inherits another's heap, page cache
// debt or open files.
func runCmd(args []string) error {
	var cfg config
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	commonFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.outDir == "" {
		return fmt.Errorf("run: --out is required")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := &suiteResult{Format: suiteFormat, Seed: cfg.seed, Seconds: cfg.seconds, Workloads: map[string]*workloadResult{}}
	failed := false
	for _, wl := range workloads {
		merged := &workloadResult{Correct: true, Metrics: metricSet{}}
		res.Workloads[wl.Name] = merged
		var untracedRate float64
		for _, traced := range []bool{false, true} {
			traceFlag := "0"
			if traced {
				traceFlag = "1"
			}
			cmd := exec.Command(self, "run-one",
				"--workload", wl.Name,
				"--seed", strconv.FormatInt(cfg.seed, 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"--trace", traceFlag,
				"--data-dir", cfg.dataDir,
				"--out", cfg.outDir)
			cmd.Stderr = os.Stderr
			path := outcomePath(cfg.outDir, wl.Name, traced)
			os.Remove(path) //nolint:errcheck // a stale file must not stand in for a child that died
			fmt.Printf("==> %s (traced=%v)\n", wl.Name, traced)
			runErr := cmd.Run() // the child's metric file says what happened
			out, err := readOutcome(path)
			if err != nil {
				return fmt.Errorf("%s: %v (child: %v)", wl.Name, err, runErr)
			}
			merged.Correct = merged.Correct && out.Correct && runErr == nil
			if !traced {
				merged.Attempted, merged.Failed = out.Attempted, out.Failed
				untracedRate = out.Metrics["work_per_s"].Value
			} else if rate := out.Metrics["work_per_s"].Value; rate > 0 {
				out.Metrics.put("trace.overhead_ratio", untracedRate/rate)
			}
			for name, v := range out.Metrics {
				if defByName[name].Traced == traced {
					merged.Metrics[name] = v
				}
			}
		}
		failed = failed || !merged.Correct
		fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", wl.Name, merged.Correct, merged.Attempted, merged.Failed)
		merged.Metrics.print(os.Stdout)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "sysbench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Println("==> wrote", path)
	if failed {
		return fmt.Errorf("at least one workload failed its correctness checks")
	}
	return nil
}

func readOutcome(path string) (*outcome, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out outcome
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &out, nil
}

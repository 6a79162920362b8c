// Package scheduler simulates the HPC batch systems Benchpark submits
// to (variables.yaml, Figures 12/13: sbatch/srun on Slurm, jsrun on
// LSF, flux run). It is an event-driven simulator: jobs carry a node
// count, a time limit, and a payload whose simulated duration
// determines when the job completes; the scheduler advances a logical
// clock, allocating nodes FIFO with optional EASY backfill.
package scheduler

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/hpcsim"
)

// JobState is the lifecycle state of a batch job.
type JobState int

const (
	// Pending: queued, waiting for nodes.
	Pending JobState = iota
	// Running: allocated and executing.
	Running
	// Completed successfully.
	Completed
	// Failed: the payload returned an error.
	Failed
	// TimedOut: the payload exceeded the job's time limit.
	TimedOut
)

func (s JobState) String() string {
	switch s {
	case Pending:
		return "PENDING"
	case Running:
		return "RUNNING"
	case Completed:
		return "COMPLETED"
	case Failed:
		return "FAILED"
	case TimedOut:
		return "TIMEOUT"
	}
	return "UNKNOWN"
}

// Payload executes the job's work and reports its simulated duration.
type Payload func() (elapsed float64, err error)

// Job is one batch job.
type Job struct {
	ID        int
	Name      string
	User      string
	Nodes     int
	TimeLimit float64 // seconds

	SubmitTime float64
	StartTime  float64
	EndTime    float64
	State      JobState
	Err        error

	payload Payload
}

// WaitTime returns how long the job queued.
func (j *Job) WaitTime() float64 { return j.StartTime - j.SubmitTime }

// Scheduler simulates one system's batch queue.
type Scheduler struct {
	sys       *hpcsim.System
	clock     float64
	freeNodes int
	nextID    int

	// Backfill enables EASY backfill: a pending job may jump the FIFO
	// head if, per its time limit, it cannot delay the head's
	// earliest possible start.
	Backfill bool

	pending   []*Job
	running   []*Job
	completed []*Job

	busyNodeSeconds float64
}

// New returns a scheduler for the system with all nodes free.
func New(sys *hpcsim.System) *Scheduler {
	return &Scheduler{sys: sys, freeNodes: sys.Nodes}
}

// Submit queues a job at the current simulated time.
func (s *Scheduler) Submit(name string, nodes int, timeLimit float64, payload Payload) (*Job, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("scheduler: job %q requests %d nodes", name, nodes)
	}
	if nodes > s.sys.Nodes {
		return nil, fmt.Errorf("scheduler: job %q requests %d nodes, %s has %d",
			name, nodes, s.sys.Name, s.sys.Nodes)
	}
	if timeLimit <= 0 {
		return nil, fmt.Errorf("scheduler: job %q has no time limit", name)
	}
	if payload == nil {
		return nil, fmt.Errorf("scheduler: job %q has no payload", name)
	}
	s.nextID++
	j := &Job{
		ID: s.nextID, Name: name, Nodes: nodes, TimeLimit: timeLimit,
		SubmitTime: s.clock, State: Pending, payload: payload, User: "benchpark",
	}
	s.pending = append(s.pending, j)
	return j, nil
}

// SubmitScript parses scheduler directives from a rendered batch
// script (Figure 13) and submits it. Three dialects are understood,
// matching the variables.yaml of each system profile:
//
//	#SBATCH -N <nodes> / -t <limit>    (Slurm)
//	#BSUB -nnodes <nodes> / -W <limit> (LSF)
//	#flux: -N <nodes> / -t <limit>     (Flux)
func (s *Scheduler) SubmitScript(name, script string, payload Payload) (*Job, error) {
	nodes := 1
	limit := 3600.0
	for _, line := range strings.Split(script, "\n") {
		line = strings.TrimSpace(line)
		var fields []string
		switch {
		case strings.HasPrefix(line, "#SBATCH"), strings.HasPrefix(line, "#BSUB"),
			strings.HasPrefix(line, "#flux:"):
			fields = strings.Fields(line)
		default:
			continue
		}
		for i := 1; i+1 < len(fields); i += 2 {
			switch fields[i] {
			case "-N", "-nnodes":
				n, err := strconv.Atoi(fields[i+1])
				if err != nil {
					return nil, fmt.Errorf("scheduler: bad %s %s %q", fields[0], fields[i], fields[i+1])
				}
				nodes = n
			case "-t", "-W":
				sec, err := parseTimeLimit(fields[i+1])
				if err != nil {
					return nil, err
				}
				limit = sec
			}
		}
	}
	return s.Submit(name, nodes, limit, payload)
}

// parseTimeLimit accepts "MM", "MM:SS" or "HH:MM:SS".
func parseTimeLimit(text string) (float64, error) {
	parts := strings.Split(text, ":")
	var nums []float64
	for _, p := range parts {
		n, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return 0, fmt.Errorf("scheduler: bad time limit %q", text)
		}
		nums = append(nums, n)
	}
	switch len(nums) {
	case 1:
		return nums[0] * 60, nil
	case 2:
		return nums[0]*60 + nums[1], nil
	case 3:
		return nums[0]*3600 + nums[1]*60 + nums[2], nil
	}
	return 0, fmt.Errorf("scheduler: bad time limit %q", text)
}

// start launches a job at the current clock.
func (s *Scheduler) start(j *Job) {
	s.freeNodes -= j.Nodes
	j.StartTime = s.clock
	j.State = Running
	elapsed, err := j.payload()
	switch {
	case err != nil:
		j.State = Failed // final state recorded at EndTime
		j.Err = err
		if elapsed <= 0 {
			elapsed = 1
		}
		j.EndTime = s.clock + elapsed
	case elapsed > j.TimeLimit:
		j.State = TimedOut
		j.Err = fmt.Errorf("scheduler: job %s exceeded time limit (%.0fs > %.0fs)", j.Name, elapsed, j.TimeLimit)
		j.EndTime = s.clock + j.TimeLimit
	default:
		j.State = Completed
		j.EndTime = s.clock + elapsed
	}
	s.running = append(s.running, j)
}

// tryStart starts every job that can run now, honoring FIFO order
// with optional EASY backfill.
func (s *Scheduler) tryStart() {
	for len(s.pending) > 0 && s.pending[0].Nodes <= s.freeNodes {
		j := s.pending[0]
		s.pending = s.pending[1:]
		s.start(j)
	}
	if !s.Backfill || len(s.pending) == 0 {
		return
	}
	// Shadow time: when could the head start, given running jobs end
	// at their recorded EndTime?
	head := s.pending[0]
	shadow, shadowFree := s.shadowStart(head)
	i := 1
	for i < len(s.pending) {
		j := s.pending[i]
		fits := j.Nodes <= s.freeNodes
		// Safe if it finishes before the shadow time, or leaves enough
		// nodes for the head even at the shadow time.
		safe := s.clock+j.TimeLimit <= shadow || j.Nodes <= shadowFree-head.Nodes
		if fits && safe {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			s.start(j)
			shadow, shadowFree = s.shadowStart(head)
			continue
		}
		i++
	}
}

// shadowStart computes the earliest time the head job could start and
// the free node count at that time.
func (s *Scheduler) shadowStart(head *Job) (when float64, freeAt int) {
	free := s.freeNodes
	ends := append([]*Job(nil), s.running...)
	sort.Slice(ends, func(i, j int) bool { return ends[i].EndTime < ends[j].EndTime })
	when = s.clock
	for _, j := range ends {
		if free >= head.Nodes {
			break
		}
		free += j.Nodes
		when = j.EndTime
	}
	return when, free
}

// Step advances to the next completion event; it returns false when
// nothing is running or pending.
func (s *Scheduler) Step() bool {
	s.tryStart()
	if len(s.running) == 0 {
		return false
	}
	// Complete the earliest-finishing job (ties by ID for determinism).
	sort.Slice(s.running, func(i, j int) bool {
		if s.running[i].EndTime != s.running[j].EndTime {
			return s.running[i].EndTime < s.running[j].EndTime
		}
		return s.running[i].ID < s.running[j].ID
	})
	j := s.running[0]
	s.running = s.running[1:]
	s.clock = j.EndTime
	s.freeNodes += j.Nodes
	s.busyNodeSeconds += float64(j.Nodes) * (j.EndTime - j.StartTime)
	s.completed = append(s.completed, j)
	return true
}

// Drain runs the simulation until all jobs have completed. It returns
// an error if pending jobs remain that can never start. The context is
// checked between completion events, so an engine timeout can stop a
// long queue drain; jobs already completed stay completed.
func (s *Scheduler) Drain(ctx context.Context) error {
	for s.Step() {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if len(s.pending) > 0 {
		return fmt.Errorf("scheduler: %d jobs stuck pending (first: %s needing %d nodes)",
			len(s.pending), s.pending[0].Name, s.pending[0].Nodes)
	}
	return nil
}

// Completed returns finished jobs in completion order.
func (s *Scheduler) Completed() []*Job { return s.completed }

// Makespan is the clock after Drain.
func (s *Scheduler) Makespan() float64 { return s.clock }

// Utilization is busy node-seconds over elapsed capacity.
func (s *Scheduler) Utilization() float64 {
	if s.clock == 0 {
		return 0
	}
	return s.busyNodeSeconds / (s.clock * float64(s.sys.Nodes))
}

package main

import (
	"fmt"
	"time"

	"twig/internal/telemetry"
)

// load is a workload after setup: pass performs its fixed operation set
// once, timing each operation through the recorder.
type load struct {
	// instrPerPass is the simulated instruction count one pass delivers.
	instrPerPass int64
	// minOps is the fewest operations an untraced timed phase runs.
	minOps int
	pass   func(r *recorder)
	// digest hashes every simulated statistic the passes produced.
	digest func() string
	// layers adds the per-layer metrics of a traced run: traced is the
	// traced phase and led holds its spans.
	layers func(m metrics, traced *phase, led *telemetry.Ledger) error
}

// phase is the outcome of repeating a load's pass for a time budget.
type phase struct {
	passWall, passCPU []float64 // seconds per pass, summed over its operations
	passPeakMB        []float64 // peak resident memory of each pass
	opMs, opCPUMs     []float64 // wall and process CPU time of each operation
	attempted, failed int
}

// recorder times the operations of one phase. Only the facade call of
// an operation is timed; its output check runs outside the timing.
type recorder struct {
	ph        *phase
	led       *telemetry.Ledger
	wall, cpu time.Duration // of the current pass
}

// op runs one operation: call makes one facade call and check verifies
// its output. A failing call or check counts the operation as failed.
func (r *recorder) op(name string, call, check func() error) {
	c0 := cpuTime()
	d, err := spanned(r.led, name, "op", call)
	c := cpuTime() - c0
	r.wall += d
	r.cpu += c
	r.ph.attempted++
	r.ph.opMs = append(r.ph.opMs, float64(d)/1e6)
	r.ph.opCPUMs = append(r.ph.opCPUMs, float64(c)/1e6)
	if err == nil {
		err = check()
	}
	if err != nil {
		r.ph.failed++
		if r.ph.failed <= 5 {
			fmt.Printf("check failed: %s: %v\n", name, err)
		}
	}
}

// runPhase repeats l's pass until budget has elapsed, at least
// minPasses times and until at least minOps operations have run. Each
// pass starts from a collected heap with the peak resident memory
// reset. led, when non-nil, receives one span per operation.
func runPhase(l *load, budget time.Duration, minOps int, led *telemetry.Ledger) *phase {
	ph := &phase{}
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < budget || ph.attempted < minOps; n++ {
		r := &recorder{ph: ph, led: led}
		resetPeakRSS()
		l.pass(r)
		ph.passPeakMB = append(ph.passPeakMB, peakRSSMB())
		ph.passWall = append(ph.passWall, r.wall.Seconds())
		ph.passCPU = append(ph.passCPU, r.cpu.Seconds())
	}
	return ph
}

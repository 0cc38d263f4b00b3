package main

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"twig"
	"twig/internal/core"
	"twig/internal/runner"
	"twig/internal/telemetry"
)

// Simulation windows, in original instructions. Each simulation
// workload's window keeps one 20-second run well over 100 operations
// while an operation stays long enough to outweigh the per-run setup of
// a simulator; the sweeps' window lets one run hold several whole
// sweeps.
const (
	soloWindow     = 600_000
	observedWindow = 200_000
	sweepWindow    = 100_000
)

// sweepApps and sweepFigures are the experiment matrix of both sweep
// workloads.
var (
	sweepApps    = []twig.App{twig.Drupal, twig.Kafka, twig.Verilator}
	sweepFigures = []string{"fig16", "fig17"}
)

// A workloadSpec is one named load on the system. setup prepares it reps
// times (setup_s is the median) and returns the prepared load.
type workloadSpec struct {
	name  string
	setup func(rnd *rand.Rand, work string, reps int) (*load, *setupRuns, error)
}

// setupRuns holds the time and the peak resident memory of each setup
// repetition.
type setupRuns struct{ secs, peakMB []float64 }

// measure runs f as one setup repetition, from a collected heap and
// with the peak resident memory reset, and records its time and peak.
func (s *setupRuns) measure(f func() error) error {
	resetPeakRSS()
	t0 := time.Now()
	if err := f(); err != nil {
		return err
	}
	s.secs = append(s.secs, time.Since(t0).Seconds())
	s.peakMB = append(s.peakMB, peakRSSMB())
	return nil
}

var workloads = []*workloadSpec{
	{"sim_solo", func(rnd *rand.Rand, _ string, reps int) (*load, *setupRuns, error) {
		return setupSim(rnd, twig.Cassandra, twig.Config{Instructions: soloWindow}, false, reps)
	}},
	{"sim_observed", func(rnd *rand.Rand, _ string, reps int) (*load, *setupRuns, error) {
		cfg := twig.Config{Instructions: observedWindow, Check: true, CollectMetrics: true, Epoch: observedWindow / 10}
		return setupSim(rnd, twig.Kafka, cfg, true, reps)
	}},
	{"sweep_cold", func(rnd *rand.Rand, work string, reps int) (*load, *setupRuns, error) {
		return setupSweep(rnd, work, false, reps)
	}},
	{"sweep_warm", func(rnd *rand.Rand, work string, reps int) (*load, *setupRuns, error) {
		return setupSweep(rnd, work, true, reps)
	}},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (*workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// pickInputs draws numInputs distinct evaluation input numbers. Input 0
// is the training input and is never drawn.
func pickInputs(rnd *rand.Rand) []int {
	seen := map[int]bool{}
	var inputs []int
	for len(inputs) < numInputs {
		in := 1 + rnd.Intn(999)
		if !seen[in] {
			seen[in] = true
			inputs = append(inputs, in)
		}
	}
	return inputs
}

// simOptions is the core operating point the facade derives from a
// Config with only Instructions set: paper defaults, no warmup.
func simOptions(window int64) core.Options {
	opts := core.DefaultOptions()
	opts.Pipeline.MaxInstructions = window
	return opts
}

var soloCalls = map[string]func(*twig.System, int) (twig.Result, error){
	"baseline":  (*twig.System).Baseline,
	"twig":      (*twig.System).Twig,
	"shotgun":   (*twig.System).Shotgun,
	"hierarchy": (*twig.System).Hierarchy,
	"shadow":    (*twig.System).Shadow,
}

// setupSim builds and trains app's System reps times. Each operation
// of the prepared load is one solo scheme call (observed false) or one
// RunSchemes call over all five schemes (observed true).
func setupSim(rnd *rand.Rand, app twig.App, cfg twig.Config, observed bool, reps int) (*load, *setupRuns, error) {
	inputs := pickInputs(rnd)
	var sys *twig.System
	runs := &setupRuns{}
	for i := 0; i < reps; i++ {
		sys = nil // the previous System is garbage during this setup
		if err := runs.measure(func() (err error) { sys, err = twig.NewSystem(app, cfg); return err }); err != nil {
			return nil, nil, err
		}
	}
	c := &simChecks{window: cfg.Instructions, ref: map[simKey]twig.Result{}}
	if cfg.Epoch > 0 {
		c.epochs = int((cfg.Instructions + cfg.Epoch - 1) / cfg.Epoch)
	}
	// At least 100 operations, so that op_cpu_ms_p90 has ten samples beyond it.
	l := &load{instrPerPass: int64(len(inputs)*len(schemes)) * cfg.Instructions, minOps: 100, digest: c.digest}
	if observed {
		l.pass = func(r *recorder) {
			for _, in := range inputs {
				var rs map[string]twig.Result
				r.op(fmt.Sprintf("op:run_schemes:in%d", in),
					func() (err error) { rs, err = sys.RunSchemes(in, schemes...); return err },
					func() error { return c.checkAll(in, rs) })
			}
		}
	} else {
		l.pass = func(r *recorder) {
			for _, in := range inputs {
				for _, s := range schemes {
					var res twig.Result
					r.op(fmt.Sprintf("op:%s:in%d", s, in),
						func() (err error) { res, err = soloCalls[s](sys, in); return err },
						func() error { return c.check(in, s, res) })
				}
			}
		}
	}
	l.layers = func(m metrics, traced *phase, led *telemetry.Ledger) error {
		if err := probeLayers(m, []twig.App{app}, simOptions(cfg.Instructions), inputs[0], led); err != nil {
			return err
		}
		if observed {
			// The operation itself is the observed RunSchemes call.
			m.set("core.run_schemes_ms", median(traced.opMs), "ms")
			m.set("core.parallelism", sum(traced.passCPU)/sum(traced.passWall), "ratio")
		}
		noRunnerMetrics(m)
		return nil
	}
	return l, runs, nil
}

type simKey struct {
	input  int
	scheme string
}

// simChecks verifies simulation results: the simulated window, the
// epoch series, bit-identical results on every pass, and the law that
// hierarchy and shadow never miss more direct branches than baseline.
type simChecks struct {
	window int64
	epochs int
	ref    map[simKey]twig.Result
	order  []simKey
}

func (c *simChecks) check(in int, scheme string, res twig.Result) error {
	if res.Instructions != c.window {
		return fmt.Errorf("simulated %d instructions, want %d", res.Instructions, c.window)
	}
	if c.epochs > 0 && len(res.Epochs) != c.epochs {
		return fmt.Errorf("%d epochs, want %d", len(res.Epochs), c.epochs)
	}
	k := simKey{in, scheme}
	if ref, ok := c.ref[k]; ok {
		if !reflect.DeepEqual(ref, res) {
			return fmt.Errorf("result differs from the first pass's")
		}
	} else {
		c.ref[k] = res
		c.order = append(c.order, k)
	}
	if scheme == "hierarchy" || scheme == "shadow" {
		base, ok := c.ref[simKey{in, "baseline"}]
		if !ok {
			return fmt.Errorf("no baseline result for input %d", in)
		}
		if res.BTBMisses > base.BTBMisses {
			return fmt.Errorf("%d direct-branch BTB misses, more than baseline's %d", res.BTBMisses, base.BTBMisses)
		}
	}
	return nil
}

func (c *simChecks) checkAll(in int, rs map[string]twig.Result) error {
	if len(rs) != len(schemes) {
		return fmt.Errorf("%d results, want %d", len(rs), len(schemes))
	}
	for _, s := range schemes { // baseline first, for the miss law
		res, ok := rs[s]
		if !ok {
			return fmt.Errorf("no %s result", s)
		}
		if err := c.check(in, s, res); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
	}
	return nil
}

func (c *simChecks) digest() string {
	var b strings.Builder
	for _, k := range c.order {
		fmt.Fprintf(&b, "%d %s %+v\n", k.input, k.scheme, c.ref[k])
	}
	return digestOf(b.String())
}

// setupSweep fills reps fresh result caches with cold sweeps; every
// setup must print the same figures, which become the reference every
// timed sweep is checked against. sweep_cold then times further cold
// sweeps, each into a fresh empty cache; sweep_warm times replays of
// the last cache setup filled. The seed orders the applications.
func setupSweep(rnd *rand.Rand, work string, warm bool, reps int) (*load, *setupRuns, error) {
	apps := append([]twig.App(nil), sweepApps...)
	rnd.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	fmt.Printf("apps: %v\n", apps)
	cfg := twig.Config{Instructions: sweepWindow, Jobs: runtime.NumCPU()}

	var ref, cacheDir string
	runs := &setupRuns{}
	for i := 0; i < reps; i++ {
		dir, err := os.MkdirTemp(work, "cache-")
		if err != nil {
			return nil, nil, err
		}
		var out string
		if err := runs.measure(func() (err error) { out, err = sweep(cfg, dir, apps, nil, nil); return err }); err != nil {
			return nil, nil, err
		}
		switch {
		case i == 0:
			ref = out
		case out != ref:
			return nil, nil, fmt.Errorf("cold sweeps into fresh caches printed different figures")
		}
		if cacheDir != "" {
			if err := os.RemoveAll(cacheDir); err != nil {
				return nil, nil, err
			}
		}
		cacheDir = dir
	}
	for _, id := range sweepFigures {
		if !strings.Contains(ref, "== "+id+":") {
			return nil, nil, fmt.Errorf("sweep printed no %s", id)
		}
	}
	instr, err := resultInstructions(cacheDir)
	if err != nil {
		return nil, nil, err
	}
	filled, err := cacheMtimes(cacheDir)
	if err != nil {
		return nil, nil, err
	}

	var last runner.Stats // of the latest traced sweep
	var lastBytes int64
	l := &load{instrPerPass: instr, digest: func() string { return digestOf(ref) }}
	l.pass = func(r *recorder) {
		dir := cacheDir
		var out string
		var st runner.Stats
		r.op("op:sweep",
			func() (err error) {
				if !warm {
					if dir, err = os.MkdirTemp(work, "cold-"); err != nil {
						return err
					}
				}
				out, err = sweep(cfg, dir, apps, r.led, &st)
				return err
			},
			func() error {
				if !warm {
					defer os.RemoveAll(dir)
				}
				if out != ref {
					return fmt.Errorf("printed figures differ from the reference cold sweep's")
				}
				if warm {
					if r.led != nil && (st.SimRuns != 0 || st.ProfileRuns != 0) {
						return fmt.Errorf("warm sweep ran %d simulations and %d profiles", st.SimRuns, st.ProfileRuns)
					}
					now, err := cacheMtimes(dir)
					if err != nil {
						return err
					}
					if !maps.Equal(now, filled) {
						return fmt.Errorf("warm sweep wrote to the cache")
					}
				}
				if r.led != nil { // only the traced run reports the cache's size
					b, err := cacheBytes(dir)
					if err != nil {
						return err
					}
					last, lastBytes = st, b
				}
				return nil
			})
	}
	l.layers = func(m metrics, traced *phase, led *telemetry.Ledger) error {
		opts := core.DefaultOptions()
		opts.Pipeline.MaxInstructions = sweepWindow
		opts.Pipeline.Warmup = sweepWindow / 2 // as the experiment harness runs it
		if err := probeLayers(m, apps, opts, 0, led); err != nil {
			return err
		}
		runnerMetrics(m, last, led, len(traced.passWall), sum(traced.passWall), cfg.Jobs, lastBytes)
		return nil
	}
	return l, runs, nil
}

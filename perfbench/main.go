// Package main implements perfbench, the repository's benchmark. It
// runs one named workload against the simulator through the public twig
// facade, checks the output of every operation, and prints its metrics
// by name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end host-time metrics. With
// -trace 1 the timed phase runs half untraced and half with spans and a
// CPU profile, and the run reports the per-layer metrics instead.
// README.md lists the workloads and metrics. Run it through run.sh from the root of the
// repository:
//
//	bash perfbench/run.sh --workload sim_solo --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"twig/internal/telemetry"
)

// Shape of every run: setup is repeated setupReps times so that setup_s
// is a median, not one sample, and every timed phase runs at least
// minPasses passes.
const (
	numInputs = 8
	setupReps = 3
	minPasses = 3
)

// schemes are the five schemes every simulation workload evaluates.
var schemes = []string{"baseline", "twig", "shotgun", "hierarchy", "shadow"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed choosing the workload's inputs")
		seconds = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rep, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(w *workloadSpec, seed int64, budget time.Duration, trace bool) (*report, error) {
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return nil, fmt.Errorf("creating scratch directory: %w", err)
	}
	defer os.RemoveAll(work)
	printMachine()

	rnd := rand.New(rand.NewSource(seed))
	reps := setupReps
	if trace {
		reps = 1 // a traced run reports no setup_s
	}
	l, setup, err := w.setup(rnd, work, reps)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	fmt.Printf("setup: %d x %.4f s (median %.4f s), peak RSS %.1f MB\n",
		len(setup.secs), setup.secs, median(setup.secs), setup.peakMB)

	rep := &report{Correct: true, Metrics: metrics{}}
	if !trace {
		ph := runPhase(l, budget, l.minOps, nil)
		rep.add(ph)
		fmt.Printf("digest: %s seed=%d sha256=%s\n", w.name, seed, l.digest())
		// The process's peak is that of a setup or of a pass, each taken
		// as the median of its repetitions: a lifetime peak would hang on
		// where the garbage collector's cycles and the sweeps' parallel
		// analyses happened to fall.
		rss := max(median(setup.peakMB), median(ph.passPeakMB))
		fmt.Printf("peak RSS: setup median %.1f MB, pass median %.1f MB of %.1f MB\n",
			median(setup.peakMB), median(ph.passPeakMB), ph.passPeakMB)
		// The timed phase is scored in CPU time. Wall time also counts the
		// time the host lends the machine's processors to other tenants,
		// which moved whole runs by 30%; it is printed, not scored.
		m := rep.Metrics
		m.set("setup_s", median(setup.secs), "s")
		m.set("cpu_s", median(ph.passCPU), "s")
		m.set("sim_kips_cpu", float64(l.instrPerPass)/median(ph.passCPU)/1e3, "kIPS")
		m.set("op_cpu_ms_p50", percentile(ph.opCPUMs, 0.5), "ms")
		m.set("op_cpu_ms_p90", percentile(ph.opCPUMs, 0.9), "ms")
		m.set("peak_rss_mb", rss, "MB")
		fmt.Printf("samples: %d passes, %d ops; pass cpu s %.3f\n", len(ph.passCPU), len(ph.opCPUMs), ph.passCPU)
		fmt.Printf("wall (not scored): pass median %.4f s of %.3f, %.1f kIPS, op p50 %.3f ms, op p90 %.3f ms\n",
			median(ph.passWall), ph.passWall, float64(l.instrPerPass)/median(ph.passWall)/1e3,
			percentile(ph.opMs, 0.5), percentile(ph.opMs, 0.9))
		printMetrics(m)
		return rep, nil
	}

	// Traced run: half the budget untraced, half with spans and a CPU
	// profile, so the difference between the halves is the tracing
	// overhead. The per-layer probes run afterwards, outside both.
	plain := runPhase(l, budget/2, 0, nil)
	led := telemetry.NewLedger()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	traced := runPhase(l, budget/2, 0, led)
	pprof.StopCPUProfile()
	rep.add(plain)
	rep.add(traced)
	fmt.Printf("digest: %s seed=%d sha256=%s\n", w.name, seed, l.digest())

	m := rep.Metrics
	if err := l.layers(m, traced, led); err != nil {
		return nil, fmt.Errorf("%s per-layer probes: %w", w.name, err)
	}
	shares, nsamples, err := packageShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	sum := 0.0
	for _, pkg := range sharePackages {
		m.set(pkg+".cpu_share", shares[pkg], "%")
		sum += shares[pkg]
	}
	if sum < 99.9 || sum > 100.1 {
		rep.Correct = false
		fmt.Printf("check failed: package CPU shares sum to %.3f%%\n", sum)
	}
	m.set("trace.overhead_pct", (median(traced.passWall)/median(plain.passWall)-1)*100, "%")
	if err := writeTrace(w.name, seed, led, prof.Bytes()); err != nil {
		return nil, err
	}
	fmt.Printf("samples: %d+%d passes, %d+%d ops, cpu profile %d samples\n",
		len(plain.passWall), len(traced.passWall), len(plain.opMs), len(traced.opMs), nsamples)
	printMetrics(m)
	return rep, nil
}

// add folds one phase's operation counts into the report.
func (r *report) add(ph *phase) {
	r.Attempted += ph.attempted
	r.Failed += ph.failed
	r.Correct = r.Correct && ph.failed == 0
}

// writeTrace writes the traced phase's ledger, in the telemetry JSONL
// and Perfetto formats, and its CPU profile under .bench_build/trace.
func writeTrace(name string, seed int64, led *telemetry.Ledger, prof []byte) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	var jsonl, perfetto bytes.Buffer
	if err := led.WriteJSONL(&jsonl); err != nil {
		return err
	}
	if err := led.WriteTraceEvent(&perfetto); err != nil {
		return err
	}
	for path, data := range map[string][]byte{
		base + ".ledger.jsonl":  jsonl.Bytes(),
		base + ".perfetto.json": perfetto.Bytes(),
		base + ".cpu.pprof":     prof,
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("trace: %s.{ledger.jsonl,perfetto.json,cpu.pprof} (%d spans)\n", base, led.Len())
	return nil
}

// printMachine records the machine a result set comes from.
func printMachine() {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("machine: nproc=%d gomaxprocs=%d go=%s cpu=%q peak_rss_reset=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model, resetPeakRSS() == nil)
}

func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric: %-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS collects the heap, returns the freed memory to the OS
// and resets the process's peak resident set size to its current size,
// so that peakRSSMB then reports the peak since this call. Linux allows
// the reset from version 4.0; where it is refused, the peak stays that
// of the whole process so far, and the machine line says so.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size in MiB: the
// VmHWM line of /proc/self/status, or getrusage's lifetime peak where
// that file is missing.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the p-quantile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// digestOf hashes a deterministic rendering of simulated statistics.
func digestOf(text string) string {
	sum := sha256.Sum256([]byte(text))
	return fmt.Sprintf("%x", sum[:8])
}

package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"twig"
	"twig/internal/bpu"
	"twig/internal/btb"
	"twig/internal/cache"
	"twig/internal/core"
	"twig/internal/exec"
	"twig/internal/experiments"
	"twig/internal/isa"
	"twig/internal/pipeline"
	"twig/internal/profile"
	"twig/internal/program"
	"twig/internal/runner"
	"twig/internal/telemetry"
	"twig/internal/twigopt"
	"twig/internal/workload"
)

// probeReps is how often each per-layer probe repeats; it reports the
// median.
const probeReps = 3

// sweep runs the sweep matrix with a result cache at dir and returns
// the printed figures. Untraced (led nil) it is one RunExperimentsConfig
// call on the facade. Traced, it drives the experiment harness the
// facade wraps with the runner's ledger on, and stores the runner's
// counters in st.
func sweep(cfg twig.Config, dir string, apps []twig.App, led *telemetry.Ledger, st *runner.Stats) (string, error) {
	var out strings.Builder
	if led == nil {
		cfg.CacheDir = dir
		err := twig.RunExperimentsConfig(&out, cfg, sweepFigures, apps)
		return out.String(), err
	}
	c, err := runner.OpenCache(dir, 0)
	if err != nil {
		return "", err
	}
	run := runner.New(runner.Options{Workers: cfg.Jobs, Cache: c, Ledger: led})
	ctx := experiments.NewContext(&out, cfg.Instructions)
	ctx.SetRunner(run)
	ctx.Apps = apps
	for _, id := range sweepFigures {
		e, ok := experiments.ByID(id)
		if !ok {
			return "", fmt.Errorf("unknown experiment %q", id)
		}
		if err := ctx.RunOne(e); err != nil {
			return "", err
		}
	}
	*st = run.Stats()
	return out.String(), nil
}

// resultInstructions sums the simulated original instructions of every
// simulation result in the cache at dir: the work one sweep delivers.
func resultInstructions(dir string) (int64, error) {
	c, err := runner.OpenCache(dir, 0)
	if err != nil {
		return 0, err
	}
	var total int64
	err = c.Walk(func(e runner.WalkEntry) error {
		if e.Codec != "result" {
			return nil
		}
		v, ok := c.Peek(e.Hash, runner.ResultCodec{})
		if !ok {
			return fmt.Errorf("cache entry %s does not decode", e.Hash)
		}
		total += v.(*pipeline.Result).Original
		return nil
	})
	if err == nil && total == 0 {
		err = fmt.Errorf("sweep cached no simulation results")
	}
	return total, err
}

// cacheBytes returns the total size of the entries of the cache at dir.
func cacheBytes(dir string) (int64, error) {
	c, err := runner.OpenCache(dir, 0)
	if err != nil {
		return 0, err
	}
	var total int64
	err = c.Walk(func(e runner.WalkEntry) error {
		total += e.Bytes
		return e.Err
	})
	return total, err
}

// cacheMtimes returns the modification time of every entry file of the
// cache at dir. The cache writes an entry by replacing its file, so a
// sweep that recomputes any result changes this map even when it
// writes the same bytes.
func cacheMtimes(dir string) (map[string]int64, error) {
	times := map[string]int64{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		times[path] = info.ModTime().UnixNano()
		return nil
	})
	return times, err
}

// spanned runs f as one span named name on led (nil records nothing)
// and returns its duration.
func spanned(led *telemetry.Ledger, name, cat string, f func() error) (time.Duration, error) {
	sp := led.Begin(name, cat)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	sp.AttrBool("ok", err == nil)
	sp.End()
	return d, err
}

// stage prepares each app as the facade does — build, profile on input
// 0, analyze, relink — one public call at a time, each timed and
// recorded as a span on led.
func stage(m metrics, apps []twig.App, opts core.Options, led *telemetry.Ledger) ([]*core.Artifacts, error) {
	var buildD, collectD, analyzeD, injectD time.Duration
	call := func(acc *time.Duration, name string, app twig.App, f func() error) error {
		d, err := spanned(led, "stage."+name+"/"+string(app), "setup", f)
		*acc += d
		return err
	}
	var arts []*core.Artifacts
	for _, app := range apps {
		params, err := workload.ParamsFor(app)
		if err != nil {
			return nil, err
		}
		a := &core.Artifacts{Params: params}
		if err := call(&buildD, "build", app, func() (err error) {
			a.Program, err = workload.Build(params)
			return err
		}); err != nil {
			return nil, err
		}
		if err := call(&collectD, "profile", app, func() (err error) {
			a.Profile, err = core.CollectProfile(a.Program, params, 0, opts)
			return err
		}); err != nil {
			return nil, err
		}
		if err := call(&analyzeD, "analyze", app, func() (err error) {
			a.Analysis, err = twigopt.Analyze(a.Program, a.Profile, opts.Opt)
			return err
		}); err != nil {
			return nil, err
		}
		if err := call(&injectD, "inject", app, func() (err error) {
			a.Optimized, err = a.Program.Inject(a.Analysis.Plan)
			return err
		}); err != nil {
			return nil, err
		}
		arts = append(arts, a)
	}

	var samples, profBytes, sites, covered, total int64
	for _, a := range arts {
		data, err := runner.ProfileCodec{}.Encode(a.Profile)
		if err != nil {
			return nil, err
		}
		samples += int64(len(a.Profile.Samples))
		profBytes += int64(len(data))
		sites += int64(len(a.Analysis.Placements))
		covered += a.Analysis.CoveredMissCount
		total += a.Analysis.TotalMissCount
	}
	m.set("workload.build_s", buildD.Seconds(), "s")
	m.set("profile.collect_s", collectD.Seconds(), "s")
	m.set("profile.samples", float64(samples), "count")
	m.set("profile.bytes", float64(profBytes), "bytes")
	m.set("twigopt.analyze_s", analyzeD.Seconds(), "s")
	m.set("twigopt.sites", float64(sites), "count")
	m.set("twigopt.covered_miss_frac", ratio(covered, total), "fraction")
	m.set("program.inject_s", injectD.Seconds(), "s")
	return arts, nil
}

// probeLayers stages apps and measures every layer below the facade on
// them: per-scheme pipeline cost and modelled event counts, the grouped
// RunSchemes call, the component replays, and the profile codec. Every
// public call it times is a span on led. It sets every per-layer metric
// except the runner's counters and the package CPU shares.
func probeLayers(m metrics, apps []twig.App, opts core.Options, input int, led *telemetry.Ledger) error {
	arts, err := stage(m, apps, opts, led)
	if err != nil {
		return err
	}
	window := opts.Pipeline.MaxInstructions + opts.Pipeline.Warmup

	// Each scheme alone on each app: host cost per simulated
	// instruction, and the modelled component counts from its Result.
	var c struct{ access, miss, icache, resteer, issued, used, late, injected int64 }
	var baseNs float64
	for _, s := range schemes {
		var ns float64
		for _, a := range arts {
			var res *pipeline.Result
			d, err := medianTime(led, "probe.run_scheme/"+string(a.Params.Name)+"/"+s, func() (err error) {
				res, err = a.RunScheme(s, input, opts)
				return err
			})
			if err != nil {
				return err
			}
			ns += float64(d)
			c.access += res.BTB.DirectAccesses()
			c.miss += res.BTB.DirectMisses()
			c.icache += res.ICacheMisses
			c.resteer += res.BTBResteers + res.CondMispredicts + res.RASMispredicts + res.IBTBMispredicts
			c.issued += res.Prefetch.Issued
			c.used += res.Prefetch.Used
			c.late += res.LateCoveredMisses
			c.injected += res.InjectedExecuted
		}
		perInstr := ns / float64(window*int64(len(arts)))
		m.set("pipeline.ns_per_instr."+s, perInstr, "ns")
		if s == "baseline" {
			baseNs = perInstr
		}
	}
	m.set("btb.accesses", float64(c.access), "count")
	m.set("btb.misses", float64(c.miss), "count")
	m.set("icache.misses", float64(c.icache), "count")
	m.set("pipeline.resteers", float64(c.resteer), "count")
	m.set("prefetcher.issued", float64(c.issued), "count")
	m.set("prefetcher.useful", float64(c.used), "count")
	m.set("prefetcher.accuracy", ratio(c.used, c.issued), "fraction")
	m.set("prefetcher.late", float64(c.late), "count")
	m.set("pipeline.injected_executed", float64(c.injected), "count")

	// The grouped, unobserved RunSchemes call over all five schemes.
	var med, wall, cpu time.Duration
	for _, a := range arts {
		d, err := medianTime(led, "probe.run_schemes/"+string(a.Params.Name), func() error {
			c0, t0 := cpuTime(), time.Now()
			_, err := a.RunSchemes(schemes, input, opts)
			cpu += cpuTime() - c0
			wall += time.Since(t0)
			return err
		})
		if err != nil {
			return err
		}
		med += d
	}
	m.set("core.run_schemes_ms", float64(med)/1e6/float64(len(arts)), "ms")
	m.set("core.parallelism", float64(cpu)/float64(wall), "ratio")

	// Component replays on streams recorded from the same runs.
	var rp replayCost
	for _, a := range arts {
		if err := rp.add(a, input, opts, window, led); err != nil {
			return err
		}
	}
	rp.report(m, baseNs)

	// The runner's profile codec on verilator's training profile.
	vprof, err := appProfile(arts, twig.Verilator, opts, led)
	if err != nil {
		return err
	}
	var data []byte
	enc, err := medianTime(led, "probe.profile_encode", func() (err error) { data, err = runner.ProfileCodec{}.Encode(vprof); return err })
	if err != nil {
		return err
	}
	dec, err := medianTime(led, "probe.profile_decode", func() error { _, err := runner.ProfileCodec{}.Decode(data); return err })
	if err != nil {
		return err
	}
	m.set("runner.profile_encode_s", enc.Seconds(), "s")
	m.set("runner.profile_decode_s", dec.Seconds(), "s")
	return nil
}

// appProfile returns app's training profile: from arts when staged
// there, else built and collected now, each call a span on led.
func appProfile(arts []*core.Artifacts, app twig.App, opts core.Options, led *telemetry.Ledger) (*profile.Profile, error) {
	for _, a := range arts {
		if a.Params.Name == app {
			return a.Profile, nil
		}
	}
	params, err := workload.ParamsFor(app)
	if err != nil {
		return nil, err
	}
	var p *program.Program
	if _, err := spanned(led, "stage.build/"+string(app), "setup", func() (err error) {
		p, err = workload.Build(params)
		return err
	}); err != nil {
		return nil, err
	}
	var prof *profile.Profile
	_, err = spanned(led, "stage.profile/"+string(app), "setup", func() (err error) {
		prof, err = core.CollectProfile(p, params, 0, opts)
		return err
	})
	return prof, err
}

// runnerMetrics reports a sweep runner's counters, and from the traced
// phase's ledger the queue wait per pass and the share of worker time
// spent executing jobs over wall seconds of passes.
func runnerMetrics(m metrics, st runner.Stats, led *telemetry.Ledger, passes int, wall float64, workers int, cacheBytes int64) {
	var wait, busy time.Duration
	for _, d := range led.DurationsByName("queue.wait") {
		wait += d
	}
	for _, d := range led.DurationsByName("attempt") {
		busy += d
	}
	m.set("runner.sims_run", float64(st.SimRuns), "count")
	m.set("runner.profiles_run", float64(st.ProfileRuns), "count")
	m.set("runner.cache_hits", float64(st.MemHits+st.DiskHits), "count")
	m.set("runner.cache_stores", float64(st.Stores), "count")
	m.set("runner.corrupt", float64(st.CorruptEvicted), "count")
	m.set("runner.cache_bytes", float64(cacheBytes), "bytes")
	m.set("runner.queue_wait_s", wait.Seconds()/float64(passes), "s")
	m.set("runner.busy_frac", busy.Seconds()/(wall*float64(workers)), "fraction")
}

// noRunnerMetrics reports the runner metrics of a workload whose timed
// phase uses no runner: all 0.
func noRunnerMetrics(m metrics) {
	for name, unit := range map[string]string{
		"runner.sims_run": "count", "runner.profiles_run": "count", "runner.cache_hits": "count",
		"runner.cache_stores": "count", "runner.corrupt": "count", "runner.cache_bytes": "bytes",
		"runner.queue_wait_s": "s", "runner.busy_frac": "fraction",
	} {
		m.set(name, 0, unit)
	}
}

// medianTime runs f probeReps times, each as a span named name on led,
// and returns its median duration.
func medianTime(led *telemetry.Ledger, name string, f func() error) (time.Duration, error) {
	ds := make([]float64, probeReps)
	for i := range ds {
		d, err := spanned(led, name, "probe", f)
		if err != nil {
			return 0, err
		}
		ds[i] = float64(d)
	}
	return time.Duration(median(ds)), nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// replayCost accumulates component replay times and stream lengths
// over apps.
type replayCost struct {
	steps, branches, lines, conds, mispredicts int64
	execNs, btbNs, hierNs, cacheNs, bpuNs      float64
}

// add records the step, branch and line streams of a's unmodified
// binary on input, as the baseline run executes them, and times each
// component's public calls on them, each replay a span on led.
func (rc *replayCost) add(a *core.Artifacts, input int, opts core.Options, n int64, led *telemetry.Ledger) error {
	prog := a.Program
	in := a.Input(input)
	slab := make([]exec.Step, 2048)
	steps := make([]exec.Step, 0, n)
	ex, err := exec.New(prog, in)
	if err != nil {
		return err
	}
	for int64(len(steps)) < n {
		k := min(int64(len(slab)), n-int64(len(steps)))
		got := ex.NextBatch(slab[:k])
		steps = append(steps, slab[:got]...)
	}

	type branch struct {
		pc, target uint64
		kind       isa.Kind
		taken      bool
	}
	var branches []branch
	var lines, conds []uint64
	last := ^uint64(0)
	for _, s := range steps {
		ins := &prog.Instrs[s.Idx]
		if ins.Kind.IsBranch() {
			branches = append(branches, branch{ins.PC, prog.Instrs[s.NextIdx].PC, ins.Kind, s.Taken})
			if ins.Kind == isa.KindCondBranch {
				conds = append(conds, ins.PC)
			}
		}
		for line := cache.LineOf(ins.PC); line <= cache.LineOf(ins.PC+uint64(ins.Size)-1); line++ {
			if line != last {
				lines = append(lines, line)
				last = line
			}
		}
	}

	// timeIt adds to acc the median time of the function setup returns;
	// setup itself, which builds the component, is not timed.
	timeIt := func(acc *float64, name string, setup func() func()) {
		ds := make([]float64, probeReps)
		for i := range ds {
			run := setup()
			d, _ := spanned(led, "replay."+name+"/"+string(a.Params.Name), "replay", func() error { run(); return nil })
			ds[i] = float64(d)
		}
		*acc += median(ds)
	}
	timeIt(&rc.execNs, "exec", func() func() {
		ex, _ := exec.New(prog, in) // cannot fail: the same call succeeded above
		return func() {
			for left := n; left > 0; {
				k := min(int64(len(slab)), left)
				left -= int64(ex.NextBatch(slab[:k]))
			}
		}
	})
	timeIt(&rc.btbNs, "btb", func() func() {
		b := btb.New(opts.BTB)
		return func() {
			for _, br := range branches {
				if _, hit := b.Lookup(br.pc); !hit && br.taken {
					b.InsertEvict(br.pc, br.target, br.kind)
				}
			}
		}
	})
	timeIt(&rc.hierNs, "btb_hier", func() func() {
		hc := btb.DefaultHierarchyConfig()
		hc.L1 = opts.BTB
		h := btb.NewHierarchy(hc)
		return func() {
			for _, br := range branches {
				if !h.LookupL1(br.pc) {
					h.LookupL2(br.pc)
					if br.taken {
						h.Insert(br.pc, br.target, br.kind)
					}
				}
			}
		}
	})
	timeIt(&rc.cacheNs, "cache", func() func() {
		h := cache.NewHierarchy(opts.Pipeline.Hierarchy)
		return func() {
			for _, line := range lines {
				h.Fetch(line)
			}
		}
	})
	timeIt(&rc.bpuNs, "bpu", func() func() {
		d := bpu.NewDirectionPredictor(a.Params.CondMispredictRate)
		return func() {
			for _, pc := range conds {
				if d.Mispredicted(pc) { // counted, so the prediction is not optimized away
					rc.mispredicts++
				}
			}
		}
	})
	rc.steps += n
	rc.branches += int64(len(branches))
	rc.lines += int64(len(lines))
	rc.conds += int64(len(conds))
	return nil
}

// report sets the replay metrics, and the part of the baseline
// pipeline's cost per instruction the replays do not account for.
func (rc *replayCost) report(m metrics, pipelineNs float64) {
	per := func(ns float64, n int64) float64 { return ns / float64(max(n, 1)) }
	execNs := per(rc.execNs, rc.steps)
	btbNs := per(rc.btbNs, rc.branches)
	cacheNs := per(rc.cacheNs, rc.lines)
	bpuNs := per(rc.bpuNs, rc.conds)
	m.set("exec.ns_per_step", execNs, "ns")
	m.set("btb.ns_per_lookup", btbNs, "ns")
	m.set("btb.hier_ns_per_lookup", per(rc.hierNs, rc.branches), "ns")
	m.set("cache.ns_per_fetch", cacheNs, "ns")
	m.set("bpu.ns_per_predict", bpuNs, "ns")
	attributed := execNs +
		btbNs*float64(rc.branches)/float64(rc.steps) +
		cacheNs*float64(rc.lines)/float64(rc.steps) +
		bpuNs*float64(rc.conds)/float64(rc.steps)
	m.set("pipeline.unattributed_ns_per_instr", pipelineNs-attributed, "ns")
}

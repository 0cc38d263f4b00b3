package experiments

import (
	"fmt"
	"sort"

	"twig/internal/btb"
	"twig/internal/core"
	"twig/internal/metrics"
	"twig/internal/pipeline"
	"twig/internal/surrogate"
	"twig/internal/workload"
)

// This file holds the surrogate-pruned renderings of the evaluation
// and sensitivity figures. Each produces the same table shape as its
// full-grid twin, with predicted cells rendered as "value±halfwidth*",
// followed by the scheme-ranking lines (fig16) and a one-line pruning
// summary. The full-grid output is untouched: Run funcs branch here
// only when the context has surrogate mode enabled.

var allSchemeNames = []string{"baseline", "ideal", "twig", "shotgun", "confluence", "hierarchy", "shadow"}

func fig16Pruned(c *Context) error {
	t := metrics.NewTable("app", "ideal %", "32K BTB %", "confluence %", "shotgun %", "hierarchy %", "shadow %", "twig %")
	tally := &surTally{}
	cols := make([][]surrogate.Stat, 7)
	var rankings []string
	for _, app := range c.Apps {
		est, err := c.resolveSite(tally, app, 0, allSchemeNames, groupGate{metric: "ipc", rank: rankExact})
		if err != nil {
			return err
		}
		bigSpec := c.baseSpec("baseline", app, 0)
		bigSpec.entries = 32768
		big, err := c.resolvePoint(tally, fmt.Sprintf("btb%d/%s", 32768, app), bigSpec,
			func() (*r, error) { return c.bigBTB(app, 32768) })
		if err != nil {
			return err
		}
		base := est["baseline"]
		vals := []surrogate.Stat{
			speedupEst(base, est["ideal"]),
			speedupEst(base, big),
			speedupEst(base, est["confluence"]),
			speedupEst(base, est["shotgun"]),
			speedupEst(base, est["hierarchy"]),
			speedupEst(base, est["shadow"]),
			speedupEst(base, est["twig"]),
		}
		for i, v := range vals {
			cols[i] = append(cols[i], v)
		}
		t.Row(string(app), cell(vals[0]), cell(vals[1]), cell(vals[2]), cell(vals[3]),
			cell(vals[4]), cell(vals[5]), cell(vals[6]))
		rankings = append(rankings, rankLineEst(app, est))
	}
	t.Row("average", cell(meanStat(cols[0])), cell(meanStat(cols[1])), cell(meanStat(cols[2])),
		cell(meanStat(cols[3])), cell(meanStat(cols[4])), cell(meanStat(cols[5])), cell(meanStat(cols[6])))
	if _, err := fmt.Fprint(c.Out, t.String()); err != nil {
		return err
	}
	for _, l := range rankings {
		fmt.Fprintln(c.Out, l)
	}
	_, err := fmt.Fprintln(c.Out, tally.summary("fig16"))
	return err
}

func fig17Pruned(c *Context) error {
	t := metrics.NewTable("app", "confluence %", "shotgun %", "hierarchy %", "shadow %", "twig %")
	tally := &surTally{}
	names := []string{"baseline", "twig", "shotgun", "confluence", "hierarchy", "shadow"}
	cols := make([][]surrogate.Stat, 5)
	for _, app := range c.Apps {
		est, err := c.resolveSite(tally, app, 0, names, groupGate{metric: "mpki"})
		if err != nil {
			return err
		}
		base := est["baseline"]
		vals := []surrogate.Stat{
			coverageEst(base, est["confluence"]),
			coverageEst(base, est["shotgun"]),
			coverageEst(base, est["hierarchy"]),
			coverageEst(base, est["shadow"]),
			coverageEst(base, est["twig"]),
		}
		for i, v := range vals {
			cols[i] = append(cols[i], v)
		}
		t.Row(string(app), cell(vals[0]), cell(vals[1]), cell(vals[2]), cell(vals[3]), cell(vals[4]))
	}
	t.Row("average", cell(meanStat(cols[0])), cell(meanStat(cols[1])), cell(meanStat(cols[2])),
		cell(meanStat(cols[3])), cell(meanStat(cols[4])))
	if _, err := fmt.Fprint(c.Out, t.String()); err != nil {
		return err
	}
	_, err := fmt.Fprintln(c.Out, tally.summary("fig17"))
	return err
}

// diffStat subtracts stats with propagated bounds (fig18's coalescing
// gain column).
func diffStat(a, b surrogate.Stat) surrogate.Stat {
	return surrogate.Stat{Value: a.Value - b.Value, Lo: a.Lo - b.Hi, Hi: a.Hi - b.Lo}
}

func fig18Pruned(c *Context) error {
	t := metrics.NewTable("app", "sw-only % of ideal", "with coalescing % of ideal", "coalescing gain")
	tally := &surTally{}
	names := []string{"baseline", "ideal", "twig"}
	var sws, fulls []surrogate.Stat
	for _, app := range c.Apps {
		est, err := c.resolveSite(tally, app, 0, names, groupGate{metric: "ipc"})
		if err != nil {
			return err
		}
		swSpec := c.baseSpec("twig", app, 0)
		swSpec.nocoalesce = true
		swOnly, err := c.resolvePoint(tally, fmt.Sprintf("swonly/%s", app), swSpec, func() (*r, error) {
			return c.swOnly(app)
		})
		if err != nil {
			return err
		}
		base := est["baseline"]
		idealSp := speedupEst(base, est["ideal"])
		swPct := pctOfIdealEst(speedupEst(base, swOnly), idealSp)
		fullPct := pctOfIdealEst(speedupEst(base, est["twig"]), idealSp)
		sws, fulls = append(sws, swPct), append(fulls, fullPct)
		t.Row(string(app), cell(swPct), cell(fullPct), cell(diffStat(fullPct, swPct)))
	}
	mSw, mFull := meanStat(sws), meanStat(fulls)
	t.Row("average", cell(mSw), cell(mFull), cell(diffStat(mFull, mSw)))
	if _, err := fmt.Fprint(c.Out, t.String()); err != nil {
		return err
	}
	_, err := fmt.Fprintln(c.Out, tally.summary("fig18"))
	return err
}

func fig19Pruned(c *Context) error {
	t := metrics.NewTable("app", "confluence %", "shotgun %", "shadow %", "twig %")
	tally := &surTally{}
	names := []string{"twig", "shotgun", "confluence", "shadow"}
	cols := make([][]surrogate.Stat, 4)
	for _, app := range c.Apps {
		est, err := c.resolveSite(tally, app, 0, names, groupGate{metric: "acc"})
		if err != nil {
			return err
		}
		vals := []surrogate.Stat{
			est["confluence"].Acc, est["shotgun"].Acc, est["shadow"].Acc, est["twig"].Acc,
		}
		for i, v := range vals {
			cols[i] = append(cols[i], v)
		}
		t.Row(string(app), cell(vals[0]), cell(vals[1]), cell(vals[2]), cell(vals[3]))
	}
	t.Row("average", cell(meanStat(cols[0])), cell(meanStat(cols[1])), cell(meanStat(cols[2])),
		cell(meanStat(cols[3])))
	if _, err := fmt.Fprint(c.Out, t.String()); err != nil {
		return err
	}
	_, err := fmt.Fprintln(c.Out, tally.summary("fig19"))
	return err
}

func fig20Pruned(c *Context) error {
	t := metrics.NewTable("app", "same-input avg", "same stddev", "train-#0 avg", "train stddev", "shotgun avg", "confluence avg", "hierarchy avg", "shadow avg")
	tally := &surTally{}
	for _, app := range c.Apps {
		var same, cross, shot, conf, hier, shad []surrogate.Stat
		for input := 1; input <= 3; input++ {
			est, err := c.resolveSite(tally, app, input, allSchemeNames, groupGate{metric: "ipc"})
			if err != nil {
				return err
			}
			base := est["baseline"]
			idealSp := speedupEst(base, est["ideal"])
			cross = append(cross, pctOfIdealEst(speedupEst(base, est["twig"]), idealSp))

			sameSpec := c.baseSpec("twig", app, input)
			sameSpec.sameTrain = true
			twSame, err := c.resolvePoint(tally, fmt.Sprintf("twig-same/%s/%d", app, input), sameSpec,
				func() (*r, error) { return c.twigSame(app, input) })
			if err != nil {
				return err
			}
			same = append(same, pctOfIdealEst(speedupEst(base, twSame), idealSp))

			shot = append(shot, pctOfIdealEst(speedupEst(base, est["shotgun"]), idealSp))
			conf = append(conf, pctOfIdealEst(speedupEst(base, est["confluence"]), idealSp))
			hier = append(hier, pctOfIdealEst(speedupEst(base, est["hierarchy"]), idealSp))
			shad = append(shad, pctOfIdealEst(speedupEst(base, est["shadow"]), idealSp))
		}
		t.Row(string(app),
			cell(meanStat(same)), metrics.StdDev(statValues(same)),
			cell(meanStat(cross)), metrics.StdDev(statValues(cross)),
			cell(meanStat(shot)), cell(meanStat(conf)),
			cell(meanStat(hier)), cell(meanStat(shad)))
	}
	if _, err := fmt.Fprint(c.Out, t.String()); err != nil {
		return err
	}
	_, err := fmt.Fprintln(c.Out, tally.summary("fig20"))
	return err
}

// sweepSchemeNames are the five schemes a full sweep point runs; the
// pruned interior cells resolve only the four the sweep tables report
// (ideal is simulated at seed points alone, for full-grid cache
// parity).
var sweepSchemeNames = []string{"baseline", "ideal", "twig", "shotgun", "confluence"}

var sweepInteriorNames = []string{"baseline", "twig", "shotgun", "confluence"}

// sweepKeyOf maps a scheme name to its sweep memo key for the point.
func sweepKeyOf(scheme, pointKey string) string {
	for _, sk := range sweepSchemeKeys {
		if sk.name == scheme {
			return "swp-" + sk.short + "/" + pointKey
		}
	}
	return ""
}

// specUnderOpts derives the grid point for a scheme run under modified
// options.
func (c *Context) specUnderOpts(scheme string, app workload.App, opts core.Options) pointSpec {
	sp := c.baseSpec(scheme, app, 0)
	sp.entries, sp.ways = opts.BTB.Entries, opts.BTB.Ways
	sp.ftq, sp.pbuf = opts.Pipeline.FTQSize, opts.PrefetchBuffer
	sp.dist, sp.mask = opts.Opt.PrefetchDistance, opts.Opt.CoalesceMaskBits
	sp.nocoalesce = opts.Opt.DisableCoalescing
	return sp
}

// sweepRunExact returns a resolveGroup exact-runner for one sweep
// point, executing the same memoized jobs as sweepPoint (so either
// mode warms the other's cache entries).
func (c *Context) sweepRunExact(app workload.App, opts core.Options, pointKey string) func(ns []string) (map[string]*pipeline.Result, error) {
	return func(ns []string) (map[string]*pipeline.Result, error) {
		out := make(map[string]*pipeline.Result, len(ns))
		for _, n := range ns {
			res, err := c.sweepRun(n, app, opts, pointKey)
			if err != nil {
				return nil, err
			}
			out[n] = res
		}
		return out, nil
	}
}

// axisSweep is the active-learning loop behind the pruned fig23/fig24:
// the axis endpoints and midpoint simulate exactly for every sweep app
// (seeding bracketing support along the axis), a local model extends
// the shared training set with those seeds, and the interior points are
// then predicted where the width, law and ranking gates allow — every
// exact result the gates force is folded back into the local model
// before the next point, tightening later predictions. The local model
// keeps the shared state immutable, so concurrently rendered figures
// stay deterministic.
func (c *Context) axisSweep(fig string, vals []int, rowLabel func(int) any, colName string, mk func(app workload.App, v int) (string, core.Options)) error {
	c.trainSurrogate()
	st := c.sur
	tally := &surTally{}
	apps := c.SweepApps()

	st.mu.Lock()
	cfg := st.cfg
	local := make(map[string]*surrogate.Dataset, len(st.data))
	for k, d := range st.data {
		local[k] = d.Clone()
	}
	st.mu.Unlock()
	models := fitModels(local, cfg)
	stale := false
	addSample := func(spec pointSpec, res, anchor *pipeline.Result) {
		addTraining(local, spec, res, anchor)
		stale = true
	}
	refit := func() {
		if stale {
			models = fitModels(local, cfg)
			stale = false
		}
	}

	seed := map[int]bool{0: true, len(vals) / 2: true, len(vals) - 1: true}
	type cellStats struct{ tw, sh, cf surrogate.Stat }
	cells := make(map[int]map[workload.App]cellStats, len(vals))

	resolveCell := func(vi int, app workload.App, seedCell bool) error {
		pointKey, opts := mk(app, vals[vi])
		runExact := c.sweepRunExact(app, opts, pointKey)
		var est map[string]pointEst
		if seedCell {
			est = make(map[string]pointEst, len(sweepSchemeNames))
			cachedBefore := map[string]bool{}
			for _, n := range sweepSchemeNames {
				if _, ok := st.snapshot[sweepKeyOf(n, pointKey)]; ok {
					cachedBefore[n] = true
				}
			}
			runs, err := runExact(sweepSchemeNames)
			if err != nil {
				return err
			}
			for _, n := range sweepSchemeNames {
				prov := "exact"
				if cachedBefore[n] {
					prov = "cached"
				}
				est[n] = exactEst(runs[n], prov)
				tally.add(prov)
			}
		} else {
			refit()
			var err error
			est, err = c.resolveGroup(tally, sweepInteriorNames, models, groupGate{metric: "ipc", rank: rankInterval},
				func(n string) (string, error) { return sweepKeyOf(n, pointKey), nil },
				func(n string) pointSpec { return c.specUnderOpts(n, app, opts) },
				runExact)
			if err != nil {
				return err
			}
		}
		// Active learning: fold every exact result at this point into
		// the local model so later points along the axis predict tighter.
		for _, n := range sweepSchemeNames {
			if e := est[n]; e.Res != nil {
				addSample(c.specUnderOpts(n, app, opts), e.Res, est["baseline"].Res)
			}
		}
		base := est["baseline"]
		if cells[vi] == nil {
			cells[vi] = make(map[workload.App]cellStats, len(apps))
		}
		cells[vi][app] = cellStats{
			tw: speedupEst(base, est["twig"]),
			sh: speedupEst(base, est["shotgun"]),
			cf: speedupEst(base, est["confluence"]),
		}
		return nil
	}

	var seedIdx, interiorIdx []int
	for vi := range vals {
		if seed[vi] {
			seedIdx = append(seedIdx, vi)
		} else {
			interiorIdx = append(interiorIdx, vi)
		}
	}
	sort.Ints(seedIdx)
	for _, vi := range seedIdx {
		for _, app := range apps {
			if err := resolveCell(vi, app, true); err != nil {
				return err
			}
		}
	}
	for _, vi := range interiorIdx {
		for _, app := range apps {
			if err := resolveCell(vi, app, false); err != nil {
				return err
			}
		}
	}

	t := metrics.NewTable(colName, "twig sp%", "shotgun sp%", "confluence sp%")
	for vi, v := range vals {
		var tws, shs, cfs []surrogate.Stat
		for _, app := range apps {
			cs := cells[vi][app]
			tws, shs, cfs = append(tws, cs.tw), append(shs, cs.sh), append(cfs, cs.cf)
		}
		t.Row(rowLabel(v), cell(meanStat(tws)), cell(meanStat(shs)), cell(meanStat(cfs)))
	}
	if _, err := fmt.Fprint(c.Out, t.String()); err != nil {
		return err
	}
	_, err := fmt.Fprintln(c.Out, tally.summary(fig))
	return err
}

func fig23Pruned(c *Context) error {
	sizes := []int{2048, 4096, 8192, 16384, 32768, 65536}
	return c.axisSweep("fig23", sizes,
		func(s int) any { return fmt.Sprintf("%dK", s/1024) },
		"entries",
		func(app workload.App, s int) (string, core.Options) {
			opts := c.Opts
			opts.BTB = btb.Config{Entries: s, Ways: c.Opts.BTB.Ways}
			return fmt.Sprintf("size%d/%s", s, app), opts
		})
}

func fig24Pruned(c *Context) error {
	ways := []int{4, 8, 16, 32, 64, 128}
	return c.axisSweep("fig24", ways,
		func(w int) any { return w },
		"ways",
		func(app workload.App, w int) (string, core.Options) {
			opts := c.Opts
			opts.BTB = btb.Config{Entries: c.Opts.BTB.Entries, Ways: w}
			return fmt.Sprintf("ways%d/%s", w, app), opts
		})
}

package experiments

import (
	"fmt"

	"twig/internal/btb"
	"twig/internal/metrics"
	"twig/internal/runner"
)

func init() {
	register(Experiment{
		ID:    "ablation-replacement",
		Title: "Ablation: BTB replacement policy (LRU / FIFO / random) with and without Twig",
		Paper: "(not in paper) — the paper's baseline is LRU; Twig's benefit should not hinge on the victim policy",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "policy", "base MPKI", "twig sp%", "twig cover%")
			for _, app := range c.SweepApps() {
				for _, pol := range []btb.Replacement{btb.ReplaceLRU, btb.ReplaceFIFO, btb.ReplaceRandom} {
					opts := c.Opts
					opts.BTB.Replacement = pol
					key := fmt.Sprintf("repl-%v/%s", pol, app)

					art := c.artJob(app, 0)
					if pol != btb.ReplaceLRU {
						// A different policy changes the profile, so the
						// whole pipeline reruns.
						art = runner.ArtifactsJob(app, 0, opts, fmt.Sprintf("repl-%v/", pol))
					}
					base, err := c.schemeRun(key+"/base", "baseline", art, opts)
					if err != nil {
						return err
					}
					tw, err := c.schemeRun(key+"/twig", "twig", art, opts)
					if err != nil {
						return err
					}
					t.Row(string(app), pol.String(), base.MPKI(),
						metrics.Speedup(base.IPC(), tw.IPC()),
						metrics.Coverage(base.BTB.DirectMisses(), tw.BTB.DirectMisses()))
				}
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})
}

package twigopt_test

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"twig/internal/core"
	"twig/internal/profile"
	"twig/internal/program"
	"twig/internal/twigopt"
	"twig/internal/workload"
)

// appWindow is the training window, in simulated instructions, of the
// application profiles below; profiling runs twice the window.
const appWindow = 50_000

var (
	appMu    sync.Mutex
	appCache = map[workload.App]*appProfile{}
)

type appProfile struct {
	prog *program.Program
	prof *profile.Profile
}

// loadApp builds app's binary and collects its training profile once
// per test binary.
func loadApp(tb testing.TB, app workload.App) *appProfile {
	tb.Helper()
	appMu.Lock()
	defer appMu.Unlock()
	if a, ok := appCache[app]; ok {
		return a
	}
	params := workload.MustParams(app)
	p, err := workload.Build(params)
	if err != nil {
		tb.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Pipeline.MaxInstructions = appWindow
	prof, err := core.CollectProfile(p, params, 0, opts)
	if err != nil {
		tb.Fatal(err)
	}
	a := &appProfile{p, prof}
	appCache[app] = a
	return a
}

// TestAnalyzeMatchesReferenceOnApps checks that the dense analysis
// plans exactly what the map-based reference plans on real application
// profiles, under every differential configuration.
func TestAnalyzeMatchesReferenceOnApps(t *testing.T) {
	for _, app := range []workload.App{workload.Drupal, workload.Kafka, workload.Verilator} {
		a := loadApp(t, app)
		if len(a.prof.Samples) == 0 {
			t.Fatalf("%s: empty profile", app)
		}
		for _, dc := range twigopt.DifferentialConfigs() {
			got, err := twigopt.Analyze(a.prog, a.prof, dc.Config)
			if err != nil {
				t.Fatalf("%s/%s: %v", app, dc.Name, err)
			}
			want, err := twigopt.AnalyzeReference(a.prog, a.prof, dc.Config)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", app, dc.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: analysis differs from the reference (%d vs %d placements)",
					app, dc.Name, len(got.Placements), len(want.Placements))
			}
		}
	}
}

// TestBuildWithForeignProfileFails feeds core.BuildWithProfile a saved
// profile whose block count matches the binary but whose samples name a
// block or a branch the binary does not have: the analysis must return
// a named error, not index out of range.
func TestBuildWithForeignProfileFails(t *testing.T) {
	p, err := workload.Build(workload.MustParams(workload.Drupal))
	if err != nil {
		t.Fatal(err)
	}
	var branch int32 = -1
	for i := range p.Instrs {
		if p.Instrs[i].Kind.IsDirect() {
			branch = p.Instrs[i].ID
			break
		}
	}
	cases := []struct {
		name   string
		sample profile.Sample
		want   string
	}{
		{"block", profile.Sample{Branch: branch, MissCycle: 100,
			History: []profile.Record{{FromBlock: 0, ToBlock: 1 << 20, Cycle: 50}}},
			"sample 0 references block 1048576"},
		{"branch", profile.Sample{Branch: int32(len(p.Instrs)) + 5, MissCycle: 100},
			"sample 0 references branch"},
	}
	for _, c := range cases {
		prof := &profile.Profile{
			BlockExecs:   make([]int64, len(p.Blocks)),
			MissCounts:   map[int32]int64{c.sample.Branch: 1},
			Samples:      []profile.Sample{c.sample},
			Instructions: 1000,
		}
		var buf bytes.Buffer
		if err := prof.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := profile.Load(&buf)
		if err != nil {
			t.Fatalf("%s: Load: %v", c.name, err)
		}
		_, err = core.BuildWithProfile(workload.Drupal, loaded, core.DefaultOptions())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: BuildWithProfile error = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestAnalyzeReorderedProgram analyzes a binary relinked in hot-function
// order (layout PGO, as the ext-layout experiment does), where block
// IDs no longer equal block indexes: every placement's site→branch
// offset must be measured from the block that carries its ID.
func TestAnalyzeReorderedProgram(t *testing.T) {
	a := loadApp(t, workload.Kafka)
	q, err := a.prog.ReorderFunctions(a.prog.HotFunctionOrder(a.prof.BlockExecs))
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[int32]program.Block, len(q.Blocks))
	moved := 0
	for i, b := range q.Blocks {
		byID[b.ID] = b
		if int(b.ID) != i {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("reordering moved no block; the check would be vacuous")
	}
	an, err := twigopt.Analyze(q, a.prof, twigopt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Placements) == 0 {
		t.Fatal("no placements to check")
	}
	for _, pl := range an.Placements {
		site := q.Instrs[byID[pl.Block].First].PC
		if want := int64(q.PCOf(pl.Branch)) - int64(site); pl.BranchOffset != want {
			t.Fatalf("branch %d at block %d: site→branch offset %d, want %d",
				pl.Branch, pl.Block, pl.BranchOffset, want)
		}
	}
}

// BenchmarkAnalyze times the analysis alone on real application
// profiles at the default configuration.
func BenchmarkAnalyze(b *testing.B) {
	for _, app := range []workload.App{workload.Drupal, workload.Verilator} {
		b.Run(string(app), func(b *testing.B) {
			a := loadApp(b, app)
			cfg := twigopt.DefaultConfig()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := twigopt.Analyze(a.prog, a.prof, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

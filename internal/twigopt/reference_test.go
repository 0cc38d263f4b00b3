package twigopt

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"twig/internal/profile"
	"twig/internal/program"
	"twig/internal/rng"
)

// analyzeReference is the map-based site selection Analyze used before
// its dense per-branch candidate tables, kept as a differential oracle:
// steps 1 and 2 below are that code unchanged, apart from renamed key
// types and the site type, now shared; step 3 is the shared encode. It validates no IDs, so it
// panics where Analyze returns an error — feed it valid profiles only.
func analyzeReference(p *program.Program, prof *profile.Profile, cfg Config) (*Analysis, error) {
	if cfg.OffsetBits <= 0 || cfg.OffsetBits > 48 {
		return nil, fmt.Errorf("twigopt: offset width %d out of range", cfg.OffsetBits)
	}
	if cfg.CoalesceMaskBits < 1 || cfg.CoalesceMaskBits > 64 {
		return nil, fmt.Errorf("twigopt: coalesce mask width %d out of range", cfg.CoalesceMaskBits)
	}

	// Step 1: per missed branch, accumulate timely-predecessor counts
	// (the probability denominator uses whole-run block execution
	// counts; the numerator and the set-cover structure come from the
	// samples).
	timely := make(map[refKey]int64)
	coverSets := make(map[refKey][]int32)
	sampleCount := make(map[int32]int64)
	for i := range prof.Samples {
		s := &prof.Samples[i]
		ordinal := int32(sampleCount[s.Branch])
		sampleCount[s.Branch]++
		seen := map[int32]bool{}
		add := func(block int32) {
			if seen[block] {
				return
			}
			seen[block] = true
			k := refKey{s.Branch, block}
			timely[k]++
			coverSets[k] = append(coverSets[k], ordinal)
		}
		for _, rec := range s.History {
			if s.MissCycle-rec.Cycle < cfg.PrefetchDistance {
				// Too close to the miss to be timely; keep walking to
				// older records.
				continue
			}
			// Both endpoints of the taken branch are blocks that
			// executed before the miss at sufficient distance. The
			// destination block is the natural injection site (the
			// prefetch runs when that block is entered).
			add(rec.ToBlock)
			add(rec.FromBlock)
		}
	}

	an := &Analysis{Plan: &program.InjectionPlan{}}
	for _, n := range prof.MissCounts {
		an.TotalMissCount += n
	}

	// Group candidates per branch (single pass; candidateBlocks sorts
	// each group deterministically).
	byBranch := make(map[int32][]refCandidate, len(sampleCount))
	for k, n := range timely {
		byBranch[k.branch] = append(byBranch[k.branch], refCandidate{block: k.block, count: n})
	}

	// Branches in decreasing sampled-miss volume (ties by ID for
	// determinism), so the CoverageTarget cutoff keeps the head of the
	// distribution and drops the long tail.
	branches := make([]int32, 0, len(sampleCount))
	for b := range sampleCount {
		branches = append(branches, b)
	}
	sort.Slice(branches, func(i, j int) bool {
		mi, mj := prof.MissCounts[branches[i]], prof.MissCounts[branches[j]]
		if mi != mj {
			return mi > mj
		}
		return branches[i] < branches[j]
	})

	maxSites := cfg.MaxSitesPerBranch
	if maxSites <= 0 || cfg.NearestSite {
		maxSites = 1
	}
	var sites []site
	var processedMisses int64
	cutoff := int64(float64(an.TotalMissCount) * cfg.CoverageTarget)
	for _, br := range branches {
		if cfg.CoverageTarget > 0 && processedMisses >= cutoff {
			break
		}
		processedMisses += prof.MissCounts[br]
		if prof.MissCounts[br] < cfg.MinMissCount {
			continue
		}
		cands := sortRefCandidates(byBranch[br])
		if len(cands) == 0 {
			an.NoCandidate++
			continue
		}
		// Greedy set cover over this branch's samples: each round picks
		// the candidate block that covers the most still-uncovered
		// samples among blocks meeting the accuracy threshold — the
		// multi-predecessor selection of the paper's Fig. 13 example.
		nSamples := int(sampleCount[br])
		covered := make([]bool, nSamples)
		nCovered := 0
		accepted := 0
		for round := 0; round < maxSites && nCovered < nSamples; round++ {
			bestIdx := -1
			bestGain := 0
			bestProb := 0.0
			for ci := range cands {
				rec := &cands[ci]
				if rec.count == 0 { // consumed in an earlier round
					continue
				}
				execs := prof.BlockExecs[rec.block]
				if execs == 0 {
					continue
				}
				prob := float64(rec.count) / float64(execs)
				if prob > 1 {
					// A block can precede several distinct misses of
					// the same branch between two of its own executions
					// (loops); clamp for comparability.
					prob = 1
				}
				if !cfg.NearestSite && prob < cfg.MinProbability {
					continue
				}
				gain := 0
				for _, ord := range coverSets[refKey{br, rec.block}] {
					if !covered[ord] {
						gain++
					}
				}
				better := gain > bestGain || (gain == bestGain && prob > bestProb)
				if cfg.NearestSite {
					// Ablation: ignore probability, prefer the most
					// frequently timely block (locality-only heuristic).
					better = gain > bestGain
				}
				if better {
					bestIdx, bestGain, bestProb = ci, gain, prob
				}
			}
			// Stop when another site would cover almost nothing new.
			if bestIdx < 0 || bestGain == 0 || (round > 0 && bestGain*40 < nSamples) {
				break
			}
			blk := cands[bestIdx].block
			for _, ord := range coverSets[refKey{br, blk}] {
				if !covered[ord] {
					covered[ord] = true
					nCovered++
				}
			}
			cands[bestIdx].count = 0 // consume
			sites = append(sites, site{branch: br, block: blk, prob: bestProb})
			accepted++
		}
		switch {
		case accepted > 0:
			// Attribute the branch's miss volume proportionally to the
			// fraction of its samples the chosen sites can reach.
			an.CoveredMissCount += prof.MissCounts[br] * int64(nCovered) / int64(nSamples)
		case len(cands) > 0:
			an.LowProbability++
		default:
			an.NoCandidate++
		}
	}

	encode(p, cfg, an, sites)
	return an, nil
}

// refKey keys the timely-predecessor counts by (missed branch,
// candidate block), both stable IDs.
type refKey struct {
	branch int32
	block  int32
}

// refCandidate is a (block, timely-count) pair for one branch.
type refCandidate struct {
	block int32
	count int64
}

// sortRefCandidates orders a branch's candidate blocks deterministically.
func sortRefCandidates(cs []refCandidate) []refCandidate {
	sort.Slice(cs, func(i, j int) bool { return cs[i].block < cs[j].block })
	return cs
}

// AnalyzeReference, DifferentialConfig and DifferentialConfigs are
// exported for the external twigopt_test package, whose tests build real
// application profiles through core (which imports twigopt).
var AnalyzeReference = analyzeReference

// DifferentialConfig is one analysis configuration of the differential
// checks.
type DifferentialConfig struct {
	Name   string
	Config Config
}

// DifferentialConfigs returns the configurations the differential
// checks run: the default operating point and one departure from it per
// branch of the site-selection code.
func DifferentialConfigs() []DifferentialConfig {
	with := func(name string, edit func(*Config)) DifferentialConfig {
		cfg := DefaultConfig()
		edit(&cfg)
		return DifferentialConfig{name, cfg}
	}
	return []DifferentialConfig{
		with("default", func(*Config) {}),
		with("nearest-site", func(c *Config) { c.NearestSite = true }),
		with("distance-0", func(c *Config) { c.PrefetchDistance = 0 }),
		with("distance-50", func(c *Config) { c.PrefetchDistance = 50 }),
		with("no-coalescing", func(c *Config) { c.DisableCoalescing = true }),
		with("coverage-0", func(c *Config) { c.CoverageTarget = 0 }),
		with("max-sites-0", func(c *Config) { c.MaxSitesPerBranch = 0 }),
		with("max-sites-1", func(c *Config) { c.MaxSitesPerBranch = 1 }),
	}
}

// diffAnalyze runs Analyze and analyzeReference on a valid profile and
// describes the first difference, or returns "".
func diffAnalyze(p *program.Program, prof *profile.Profile, cfg Config) string {
	got, err := Analyze(p, prof, cfg)
	if err != nil {
		return fmt.Sprintf("Analyze: %v", err)
	}
	want, err := analyzeReference(p, prof, cfg)
	if err != nil {
		return fmt.Sprintf("analyzeReference: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("analyses differ:\n got  %+v\n want %+v", got, want)
	}
	return ""
}

// randomProgram links a single-function program of a few blocks, most
// ending in a conditional branch.
func randomProgram(r *rng.Rand) *program.Program {
	b := program.NewBuilder(0x400000)
	f := b.NewFunc()
	blocks := 2 + r.Intn(14)
	for i := 0; i < blocks; i++ {
		blk := f.NewBlock()
		for k := 0; k < 1+r.Intn(4); k++ {
			blk.Regular(2 + r.Intn(5))
		}
		if r.Bool(0.8) {
			blk.Cond(int32(r.Intn(blocks)), uint8(r.Intn(256)), false)
		}
	}
	f.NewBlock().Return()
	p, err := b.Link()
	if err != nil {
		panic(err)
	}
	return p
}

// directBranches lists p's direct branch IDs.
func directBranches(p *program.Program) []int32 {
	var ids []int32
	for i := range p.Instrs {
		if p.Instrs[i].Kind.IsDirect() {
			ids = append(ids, p.Instrs[i].ID)
		}
	}
	return ids
}

// randomProfile draws a valid profile of p whose shapes reach every
// corner of step 1: empty profiles, histories that repeat a block, a
// block as both ends of one record, records exactly at the default or
// zero prefetch distance, branches with no timely record, blocks never
// executed, and miss counts that disagree with the sample counts.
func randomProfile(r *rng.Rand, p *program.Program) *profile.Profile {
	prof := &profile.Profile{
		BlockExecs: make([]int64, len(p.Blocks)),
		MissCounts: map[int32]int64{},
	}
	for i := range prof.BlockExecs {
		if !r.Bool(0.1) {
			prof.BlockExecs[i] = int64(1 + r.Intn(40))
		}
	}
	branches := directBranches(p)
	if len(branches) == 0 || r.Bool(0.05) {
		return prof
	}
	hot := branches[:1+r.Intn(len(branches))]
	missCycle := 1000.0
	for s, n := 0, r.Intn(60); s < n; s++ {
		br := hot[r.Intn(len(hot))]
		prof.MissCounts[br] += int64(1 + r.Intn(3))
		var hist []profile.Record
		timely := !r.Bool(0.15) // else every record is too close
		for h, depth := 0, r.Intn(profile.LBRDepth+1); h < depth; h++ {
			var dist float64
			switch {
			case !timely:
				dist = float64(r.Intn(20))
			case r.Bool(0.2):
				dist = 20 // exactly the default prefetch distance
			case r.Bool(0.1):
				dist = 0
			default:
				dist = float64(r.Intn(80))
			}
			from := int32(r.Intn(len(p.Blocks)))
			to := from
			if r.Bool(0.6) {
				to = int32(r.Intn(len(p.Blocks)))
			}
			if h > 0 && r.Bool(0.2) {
				to = hist[r.Intn(h)].FromBlock // repeat a block of this history
			}
			hist = append(hist, profile.Record{FromBlock: from, ToBlock: to, Cycle: missCycle - dist})
		}
		prof.Samples = append(prof.Samples, profile.Sample{Branch: br, MissCycle: missCycle, History: hist})
		missCycle += float64(1 + r.Intn(100))
	}
	if r.Bool(0.3) {
		prof.MissCounts[branches[r.Intn(len(branches))]] += int64(r.Intn(5)) // unsampled misses
	}
	return prof
}

// TestAnalyzeMatchesReferenceProperty checks that the dense analysis
// plans exactly what the map-based reference plans, over random valid
// profiles and every differential configuration.
func TestAnalyzeMatchesReferenceProperty(t *testing.T) {
	configs := DifferentialConfigs()
	check := func(seed uint64) bool {
		r := rng.New(seed)
		p := randomProgram(r)
		prof := randomProfile(r, p)
		for _, nc := range configs {
			if d := diffAnalyze(p, prof, nc.Config); d != "" {
				t.Logf("seed %d, config %s: %s", seed, nc.Name, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzAnalyze decodes fuzzer bytes into a profile of a small random
// program. A profile whose IDs all exist must plan exactly what the
// reference plans; one naming a missing branch or block must be
// rejected with an error, never a panic.
func FuzzAnalyze(f *testing.F) {
	f.Add(uint64(1), []byte{})
	f.Add(uint64(2), []byte{0, 3, 1, 2, 25, 4, 4, 20, 9, 9, 0, 5, 1, 1, 40})
	f.Add(uint64(3), []byte{7, 2, 200, 1, 30, 3, 4, 2})
	f.Add(uint64(4), []byte{255, 1, 0, 0, 25})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		r := rng.New(seed)
		p := randomProgram(r)
		prof, valid := decodeProfile(p, data)
		cfg := DifferentialConfigs()[seed%uint64(len(DifferentialConfigs()))].Config
		if !valid {
			if _, err := Analyze(p, prof, cfg); err == nil {
				t.Fatal("profile naming a missing branch or block accepted")
			}
			return
		}
		if d := diffAnalyze(p, prof, cfg); d != "" {
			t.Fatal(d)
		}
	})
}

// decodeProfile turns bytes into a profile of p, one sample per run of
// (branch, depth, depth × (from, to, distance)) bytes, and reports
// whether every ID it names exists in p. Branch bytes index p's
// instructions and a few IDs past them; block bytes index p's blocks
// and a few past them, so both invalid kinds appear.
func decodeProfile(p *program.Program, data []byte) (*profile.Profile, bool) {
	prof := &profile.Profile{
		BlockExecs: make([]int64, len(p.Blocks)),
		MissCounts: map[int32]int64{},
	}
	for i := range prof.BlockExecs {
		prof.BlockExecs[i] = int64(i%7) + 1
	}
	valid := true
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	missCycle := 1000.0
	for {
		b, ok := next()
		if !ok {
			return prof, valid
		}
		br := int32(int(b) % (len(p.Instrs) + 2))
		if idx := p.IndexOf(br); idx == program.NoTarget || !p.Instrs[idx].Kind.IsDirect() {
			valid = false
		}
		depth, _ := next()
		var hist []profile.Record
		for h := 0; h < int(depth)%(profile.LBRDepth+1); h++ {
			from, ok1 := next()
			to, ok2 := next()
			dist, ok3 := next()
			if !ok1 || !ok2 || !ok3 {
				break
			}
			rec := profile.Record{
				FromBlock: int32(int(from) % (len(p.Blocks) + 2)),
				ToBlock:   int32(int(to) % (len(p.Blocks) + 2)),
				Cycle:     missCycle - float64(dist%64),
			}
			if int(rec.FromBlock) >= len(p.Blocks) || int(rec.ToBlock) >= len(p.Blocks) {
				valid = false
			}
			hist = append(hist, rec)
		}
		prof.MissCounts[br]++
		prof.Samples = append(prof.Samples, profile.Sample{Branch: br, MissCycle: missCycle, History: hist})
		missCycle += 50
	}
}

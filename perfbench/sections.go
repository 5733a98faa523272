package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/quadrant"
	"repro/internal/rtree"
	"repro/internal/sampling"
)

// sectionsBudget is the §7 interval budget of cmd/fuzzyphase/results.go.
const sectionsBudget = 10

// artifact is one regenerated results/ file.
type artifact struct {
	name string
	gen  func(ctx context.Context, opt experiment.Options) (string, error)
}

// sectionArtifacts regenerate results/section46.txt and section7.txt with
// the recipe of cmd/fuzzyphase/results.go.
var sectionArtifacts = []artifact{
	{"section46.txt", func(ctx context.Context, opt experiment.Options) (string, error) {
		rows, err := experiment.Section46(ctx, section46Names, opt)
		if err != nil {
			return "", err
		}
		var b bytes.Buffer
		experiment.RenderTreeVsKMeans(&b, rows)
		return b.String(), nil
	}},
	{"section7.txt", func(ctx context.Context, opt experiment.Options) (string, error) {
		rows, err := experiment.Section7Sampling(ctx, section7Names, sectionsBudget, opt)
		if err != nil {
			return "", err
		}
		var b bytes.Buffer
		experiment.RenderSampling(&b, rows)
		return b.String(), nil
	}},
}

// runSections is the sections workload: a closed loop over analyses
// memoized in set-up. Each pass regenerates the §4.6 and §7 artifacts (in
// a seeded order) and compares them with the archive byte for byte. It is
// the workload where k-means, sampling and the in-sample tree build do the
// work.
func runSections(cfg config, out *outcome) error {
	g, err := loadGolden(cfg.root)
	if err != nil {
		return err
	}
	ctx := context.Background()
	opt := analysisOptions(cfg)
	r := rng(cfg)

	pass := func() (map[string]time.Duration, float64) {
		before := experiment.AnalysisCacheStats()
		texts := make([]string, len(sectionArtifacts))
		errs := make([]error, len(sectionArtifacts))
		times := map[string]time.Duration{}
		var peak float64
		for _, i := range r.Perm(len(sectionArtifacts)) {
			d, rss := measured(func() { texts[i], errs[i] = sectionArtifacts[i].gen(ctx, opt) })
			times[sectionArtifacts[i].name] = d
			peak = max(peak, rss)
		}
		for i, a := range sectionArtifacts {
			out.op(sameText(a.name, texts[i], errs[i], g.text[a.name]))
		}
		out.op(allHits(memoDelta(before)))
		return times, peak
	}

	// The first pass of each set-up runs the analyses it reads; the
	// second is the untimed warm-up pass over the memo.
	err = repeatSetup(out, func() error {
		experiment.InvalidateAnalysisCache()
		for _, a := range sectionArtifacts {
			text, err := a.gen(ctx, opt)
			out.op(sameText(a.name, text, err, g.text[a.name]))
		}
		pass()
		return nil
	}, nil)
	if err != nil {
		return err
	}

	if cfg.trace {
		return traceSections(ctx, cfg, out, g, opt)
	}
	c, n, err := closedLoop(cfg.seconds, out, pass)
	if err != nil {
		return err
	}
	out.name("sections_s", c.typical(""), "s", fmt.Sprintf("typical pass of %d", n))
	for _, a := range sectionArtifacts {
		out.name(a.name, median(c[a.name]), "s", "")
	}
	return nil
}

// allHits checks that a sections pass read only memoized analyses.
func allHits(d experiment.CacheStats) error {
	if d.Misses != 0 {
		return fmt.Errorf("sections pass missed the memo %d times", d.Misses)
	}
	return nil
}

func sameText(name, got string, err error, want string) error {
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if got != want {
		return fmt.Errorf("%s differs from the golden archive:\n%s", name, got)
	}
	return nil
}

// traceSections rebuilds both artifacts from the kernels' public calls
// (kmeans BestRE, the in-sample tree build, sampling.Evaluate) over the
// memoized analyses, with a span around each call, and checks the
// rendered text against the archive.
func traceSections(ctx context.Context, cfg config, out *outcome, g *golden, opt experiment.Options) error {
	var ps passes
	var recs []*recorder
	maxK := experiment.DefaultMaxLeaves
	err := timedLoop(cfg.seconds, func() error {
		rec := newRecorder()
		memo := experiment.AnalysisCacheStats()

		var rows46 []experiment.TreeVsKMeans
		err := func() error {
			for _, name := range section46Names {
				res, err := experiment.AnalyzeCtx(ctx, name, opt)
				if err != nil {
					return err
				}
				rec.begin("kmeans_bestre", name)
				km, kk, err := res.KMeans.BestRE(res.Set.CPIs(), maxK, opt.Seed)
				rec.end()
				if err != nil {
					return err
				}
				rec.begin("tree_build", name)
				tree := res.Matrix.Build(rtree.Options{MaxLeaves: maxK, MinLeaf: 2, Parallelism: opt.Parallelism})
				treeRE := tree.InSampleRE(tree.Leaves())
				rec.end()
				row := experiment.TreeVsKMeans{Name: name, TreeRE: treeRE, TreeCV: res.CV.REOpt, KMeans: km, KMeansK: kk}
				if km > 0 {
					row.Improvement = (km - treeRE) / km
				}
				rows46 = append(rows46, row)
			}
			return nil
		}()
		var b46 bytes.Buffer
		if err == nil {
			experiment.RenderTreeVsKMeans(&b46, rows46)
		}
		out.op(sameText("traced section46.txt", b46.String(), err, g.text["section46.txt"]))

		var rows7 []experiment.SamplingRow
		err = func() error {
			for _, name := range section7Names {
				res, err := experiment.AnalyzeCtx(ctx, name, opt)
				if err != nil {
					return err
				}
				rec.begin("sampling_evaluate", name)
				evals, err := sampling.Evaluate(res.Set.CPIs(), res.KMeans, sectionsBudget, opt.Seed)
				rec.end()
				if err != nil {
					return err
				}
				needed, err := sampling.RequiredSamples(res.Set.CPIs(), 0.02)
				if err != nil {
					return err
				}
				rows7 = append(rows7, experiment.SamplingRow{
					Name: name, Quadrant: res.Quadrant, Evals: evals,
					Recommend: quadrant.Recommend(res.Quadrant), RequiredFor2Pct: needed,
				})
			}
			return nil
		}()
		var b7 bytes.Buffer
		if err == nil {
			experiment.RenderSampling(&b7, rows7)
		}
		out.op(sameText("traced section7.txt", b7.String(), err, g.text["section7.txt"]))

		m := memoMetrics(memoDelta(memo))
		rec.totals(m)
		ps = append(ps, m)
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return err
	}
	ps.into(out.layers)
	return dumpSpans(cfg, recs)
}

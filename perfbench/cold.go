package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/profstore"
)

// runCold is the cold workload: a closed loop with one caller. Each pass
// analyses the five cold workloads in a seeded order, each from an empty
// memo and profile store, so every pass pays for the whole pipeline as a
// CLI user does. Every answer is checked against the golden archive.
func runCold(cfg config, out *outcome) error {
	g, err := loadGolden(cfg.root)
	if err != nil {
		return err
	}
	ctx := context.Background()
	opt := analysisOptions(cfg)
	r := rng(cfg)

	// pass analyses every cold workload once, each from an empty memo and
	// a fresh heap, and checks each answer as soon as its clock stops. It
	// returns each analysis's time and the largest peak resident set. With
	// keep it also returns the results, for the traced run to compare
	// against; otherwise each result is dropped once checked, so the next
	// analysis's peak is its own.
	pass := func(keep bool) (map[string]time.Duration, float64, map[string]*experiment.Result) {
		before := experiment.AnalysisCacheStats()
		kept := map[string]*experiment.Result{}
		times := map[string]time.Duration{}
		var peak float64
		for _, name := range shuffled(r, coldNames) {
			experiment.InvalidateAnalysisCache()
			var res *experiment.Result
			var err error
			d, rss := measured(func() { res, err = experiment.AnalyzeCtx(ctx, name, opt) })
			times[name] = d
			peak = max(peak, rss)
			if err != nil {
				out.op(fmt.Errorf("%s: %w", name, err))
				continue
			}
			out.op(g.check(res))
			if keep {
				kept[name] = res
			}
		}
		out.op(allMisses(memoDelta(before)))
		return times, peak, kept
	}

	err = repeatSetup(out, func() error {
		pass(false) // the untimed warm-up pass
		return nil
	}, nil)
	if err != nil {
		return err
	}

	if cfg.trace {
		return traceCold(ctx, cfg, out, opt, pass)
	}
	c, n, err := closedLoop(cfg.seconds, out, func() (map[string]time.Duration, float64) {
		times, rss, _ := pass(false)
		return times, rss
	})
	if err != nil {
		return err
	}
	out.name("cold_suite_s", c.typical(""), "s", fmt.Sprintf("typical pass of %d", n))
	for _, name := range coldNames {
		out.name("cold_ms."+name, median(c[name])*1000, "ms", "median analysis")
	}
	return nil
}

// traceCold alternates untraced passes with traced ones and checks each
// traced answer against the untraced pipeline's.
func traceCold(ctx context.Context, cfg config, out *outcome, opt experiment.Options,
	pass func(keep bool) (map[string]time.Duration, float64, map[string]*experiment.Result)) error {
	var plain, traced []float64
	var ps passes
	var recs []*recorder
	err := timedLoop(cfg.seconds, func() error {
		before := experiment.AnalysisCacheStats()
		times, _, want := pass(true)
		var d time.Duration
		for _, t := range times {
			d += t
		}
		plain = append(plain, d.Seconds())
		m := memoMetrics(memoDelta(before))

		// Traced analyses start from a fresh heap too, so the two kinds of
		// pass differ only by the tracing.
		rec := newRecorder()
		store := profstore.New() // memory-only and empty: every Get collects
		got := map[string]*experiment.Result{}
		var total time.Duration
		for _, name := range coldNames {
			var res *experiment.Result
			var err error
			d, _ := measured(func() { res, err = tracedAnalyze(ctx, rec, store, name, opt, m) })
			total += d
			if err != nil {
				out.op(fmt.Errorf("traced %s: %w", name, err))
				continue
			}
			got[name] = res
		}
		traced = append(traced, total.Seconds())
		for name, res := range got {
			if w, ok := want[name]; ok {
				out.op(sameResult(res, w))
			}
		}
		st := store.Stats()
		m["store_disk_hits"] = float64(st.DiskHits)
		m["store_misses"] = float64(st.Misses)
		rec.totals(m)
		ps = append(ps, m)
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return err
	}
	ps.into(out.layers)
	out.layers["trace_overhead_frac"] = median(traced)/median(plain) - 1
	out.name("cold_suite_s", median(plain), "s", "untraced passes of the traced run")
	out.name("traced_suite_s", median(traced), "s", "traced pipeline passes")
	return dumpSpans(cfg, recs)
}

// memoDelta returns the change in the Analyze memo counters since before.
func memoDelta(before experiment.CacheStats) experiment.CacheStats {
	now := experiment.AnalysisCacheStats()
	return experiment.CacheStats{
		Hits:   now.Hits - before.Hits,
		Misses: now.Misses - before.Misses,
		Shared: now.Shared - before.Shared,
	}
}

// allMisses checks that a cold pass never reused a memoized analysis.
func allMisses(d experiment.CacheStats) error {
	if d.Hits != 0 || d.Shared != 0 {
		return fmt.Errorf("cold pass was served from the memo: %d hits, %d shared", d.Hits, d.Shared)
	}
	return nil
}

func memoMetrics(d experiment.CacheStats) map[string]float64 {
	return map[string]float64{
		"memo_hits":   float64(d.Hits),
		"memo_misses": float64(d.Misses),
		"memo_shared": float64(d.Shared),
	}
}

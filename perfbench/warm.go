package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/experiment"
	"repro/internal/profilefmt"
	"repro/internal/profstore"
	"repro/internal/workload"
)

// export is one cold workload's state captured in set-up.
type export struct {
	name string
	// data is the workload's EIPV profile in the FZEV binary encoding, and
	// key its content hash (the upload cache key serve would use).
	data []byte
	key  string
	// native is the JSON NewReport of the native analysis, which the store
	// half must reproduce byte for byte. upload is the same report under
	// the exported profile's own name (the set's short workload name, as
	// in serve's upload round-trip contract), which the upload half must
	// reproduce.
	native, upload []byte
}

// runWarm is the warm workload: a closed loop with no simulation. Set-up
// fills a profile-store directory and exports the five cold workloads'
// profiles. Each pass then re-analyses every workload twice from an empty
// memo: once served from the store's disk tier (the store half), once by
// decoding and analysing its exported bytes (the upload half).
func runWarm(cfg config, out *outcome) error {
	g, err := loadGolden(cfg.root)
	if err != nil {
		return err
	}
	ctx := context.Background()
	opt := analysisOptions(cfg)
	r := rng(cfg)

	var dir string
	var exports []export

	// pass runs both halves over every workload in a seeded order, each
	// re-analysis from an empty memo (which also drops the profile store's
	// memory tier) and a fresh heap. Each report is checked as soon as its
	// clock stops and its result then dropped, so the next analysis's peak
	// is its own. pass returns each re-analysis's time and the largest peak
	// resident set.
	pass := func() (map[string]time.Duration, float64) {
		order := shuffled(r, coldNames)
		byName := map[string]export{}
		for _, e := range exports {
			byName[e.name] = e
		}
		times := map[string]time.Duration{}
		var peak float64
		timed := func(half, name string, want []byte, fn func() (*experiment.Result, error)) {
			experiment.InvalidateAnalysisCache()
			var res *experiment.Result
			var err error
			d, rss := measured(func() { res, err = fn() })
			times[half+"/"+name] = d
			peak = max(peak, rss)
			out.op(sameReport(name, half, res, err, want))
		}

		before := experiment.ProfileStoreStats()
		for _, name := range order {
			timed("store", name, byName[name].native, func() (*experiment.Result, error) {
				return experiment.AnalyzeCtx(ctx, name, opt)
			})
		}
		after := experiment.ProfileStoreStats()

		for _, name := range order {
			e := byName[name]
			timed("upload", name, e.upload, func() (*experiment.Result, error) {
				p, err := profilefmt.DecodeBinaryBytes(e.data, profilefmt.Limits{})
				if err != nil {
					return nil, err
				}
				return experiment.AnalyzeProfileCtx(ctx, e.key, p, opt)
			})
		}
		out.op(allDiskHits(before, after, len(order)))
		return times, peak
	}

	setup := func() error {
		var err error
		if dir, err = os.MkdirTemp(cfg.tmp, "warm-store-"); err != nil {
			return err
		}
		if err := experiment.SetProfileDir(dir); err != nil {
			return err
		}
		experiment.InvalidateAnalysisCache()
		exports = exports[:0]
		for _, name := range coldNames {
			res, err := experiment.AnalyzeCtx(ctx, name, opt)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			out.op(g.check(res))
			p := profilefmt.FromSet(res.Set, res.Machine, workload.IntervalInsts)
			report := experiment.NewReport(res)
			native, err := json.Marshal(report)
			if err != nil {
				return fmt.Errorf("%s: encode report: %w", name, err)
			}
			report.Name = p.Name
			upload, err := json.Marshal(report)
			if err != nil {
				return fmt.Errorf("%s: encode report: %w", name, err)
			}
			data := profilefmt.EncodeBinary(p)
			sum := sha256.Sum256(data)
			exports = append(exports, export{name, data, hex.EncodeToString(sum[:]), native, upload})
		}
		pass() // the untimed warm-up pass
		return nil
	}
	teardown := func() error {
		if err := experiment.SetProfileDir(""); err != nil {
			return err
		}
		return os.RemoveAll(dir)
	}
	if err := repeatSetup(out, setup, teardown); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if cfg.trace {
		return traceWarm(ctx, cfg, out, opt, dir, exports)
	}
	c, n, err := closedLoop(cfg.seconds, out, pass)
	if err != nil {
		return err
	}
	out.name("store_suite_s", c.typical("store/"), "s", fmt.Sprintf("store half, typical pass of %d", n))
	out.name("upload_suite_s", c.typical("upload/"), "s", "upload half")
	return nil
}

// allDiskHits checks that the store half read every profile from disk.
func allDiskHits(before, after profstore.Stats, n int) error {
	if hits, misses := after.DiskHits-before.DiskHits, after.Misses-before.Misses; hits != uint64(n) || misses != 0 {
		return fmt.Errorf("store half: %d disk hits and %d misses, want %d and 0", hits, misses, n)
	}
	return nil
}

// sameReport checks one re-analysis against its expected JSON report.
func sameReport(name, how string, res *experiment.Result, err error, want []byte) error {
	if err != nil {
		return fmt.Errorf("%s %s: %w", how, name, err)
	}
	got, err := json.Marshal(experiment.NewReport(res))
	if err != nil {
		return fmt.Errorf("%s %s: encode report: %w", how, name, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s %s: report differs from the native analysis:\n got %s\nwant %s", how, name, got, want)
	}
	return nil
}

// traceWarm runs traced warm passes: the store half through a fresh
// profstore.Store on the set-up directory, the upload half through the
// decode/index/CV calls, each checked against the untraced pipeline.
func traceWarm(ctx context.Context, cfg config, out *outcome, opt experiment.Options, dir string, exports []export) error {
	var ps passes
	var recs []*recorder
	err := timedLoop(cfg.seconds, func() error {
		rec := newRecorder()
		m := map[string]float64{}
		store := profstore.New()
		if err := store.SetDir(dir); err != nil {
			return err
		}
		memo := experiment.AnalysisCacheStats()
		for _, e := range exports {
			// The untraced pipeline's answers, from an empty memo.
			experiment.InvalidateAnalysisCache()
			want, err := experiment.AnalyzeCtx(ctx, e.name, opt)
			if err != nil {
				out.op(fmt.Errorf("%s: %w", e.name, err))
				continue
			}
			experiment.InvalidateAnalysisCache()
			p, err := profilefmt.DecodeBinaryBytes(e.data, profilefmt.Limits{})
			if err != nil {
				out.op(fmt.Errorf("decode %s: %w", e.name, err))
				continue
			}
			wantUp, err := experiment.AnalyzeProfileCtx(ctx, e.key, p, opt)
			if err != nil {
				out.op(fmt.Errorf("upload %s: %w", e.name, err))
				continue
			}

			got, err := tracedAnalyze(ctx, rec, store, e.name, opt, m)
			if err != nil {
				out.op(fmt.Errorf("traced %s: %w", e.name, err))
			} else {
				out.op(sameResult(got, want))
			}
			gotUp, err := tracedUpload(ctx, rec, e.name, e.data, opt, m)
			if err != nil {
				out.op(fmt.Errorf("traced upload %s: %w", e.name, err))
			} else {
				out.op(sameResult(gotUp, wantUp))
			}
		}
		for k, v := range memoMetrics(memoDelta(memo)) {
			m[k] = v
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
	return dumpSpans(cfg, recs)
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"time"

	"repro/internal/cpu"
	"repro/internal/eipv"
	"repro/internal/experiment"
	"repro/internal/profilefmt"
	"repro/internal/profiler"
	"repro/internal/profstore"
	"repro/internal/quadrant"
	"repro/internal/rtree"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The traced pipeline rebuilds each workload's computation from the layers'
// public functions and wraps every call in a span, so the per-layer
// numbers come from the benchmark's own files and no program code is
// instrumented. After each traced analysis it checks that its answer
// equals the untraced pipeline's, so the spans describe the same
// computation the end-to-end numbers time.

// span is one timed call into a layer.
type span struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	StartMs  float64 `json:"start_ms"`
	DurMs    float64 `json:"dur_ms"`
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int `json:"parent"`
	// AllocMB is the heap allocated during the span, where tracked.
	AllocMB float64 `json:"alloc_mb,omitempty"`
}

// recorder keeps one traced pass's spans in memory. It is used from the
// caller's goroutine only.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(name, workload string) {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Workload: workload, StartMs: ms(time.Since(r.t0)), Parent: parent})
	r.open = append(r.open, len(r.spans)-1)
}

// end closes the innermost open span and returns it.
func (r *recorder) end() *span {
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[i]
	s.DurMs = ms(time.Since(r.t0)) - s.StartMs
	return s
}

// add records a span timed elsewhere (on another goroutine) as a child of
// the innermost open span.
func (r *recorder) add(name, workload string, start time.Time, d time.Duration, allocMB float64) {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Workload: workload,
		StartMs: ms(start.Sub(r.t0)), DurMs: ms(d), Parent: parent, AllocMB: allocMB})
}

// totals sums span durations into "<name>_ms.<workload>" metrics and
// tracked allocations into "<name>_alloc_mb".
func (r *recorder) totals(into map[string]float64) {
	for _, s := range r.spans {
		into[s.Name+"_ms."+s.Workload] += s.DurMs
		if s.AllocMB > 0 {
			into[s.Name+"_alloc_mb"] += s.AllocMB
		}
	}
}

// allocatedMB reads the process's cumulative heap allocation without
// stopping the world.
func allocatedMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// passes collects the per-layer metric values of each traced pass; the
// reported value of a metric is its median over passes.
type passes []map[string]float64

func (p passes) into(layers map[string]float64) {
	for _, l := range perLayer {
		var xs []float64
		for _, m := range p {
			if v, ok := m[l.name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			layers[l.name] = median(xs)
		}
	}
}

// dumpSpans writes a traced run's spans to the working directory.
func dumpSpans(cfg config, recs []*recorder) error {
	var all [][]span
	for _, r := range recs {
		all = append(all, r.spans)
	}
	b, err := json.Marshal(all)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	path := filepath.Join(cfg.tmp, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// resolved fills the Options fields analysisOptions leaves at their zero
// defaults, so the traced pipeline calls each layer with exactly what the
// pipeline passes it.
func resolved(opt experiment.Options) experiment.Options {
	opt.Intervals = experiment.DefaultIntervals
	opt.Warmup = experiment.DefaultWarmup
	opt.Machine = cpu.Itanium2()
	opt.IntervalInsts = workload.IntervalInsts
	opt.MaxLeaves = experiment.DefaultMaxLeaves
	opt.Folds = experiment.DefaultFolds
	return opt
}

func treeOptions(opt experiment.Options) rtree.Options {
	return rtree.Options{MaxLeaves: opt.MaxLeaves, MinLeaf: 2, Parallelism: opt.Parallelism}
}

// tracedAnalyze is AnalyzeCtx rebuilt from public calls:
// profstore.Store.Get over profiler.CollectByName, eipv.Build and
// SkipWarmup, rtree.IndexDataset, CrossValidateCtx and quadrant.Classify.
// It returns the Result fields those calls determine; layer counts
// (features, simulated instructions per second) go into m.
func tracedAnalyze(ctx context.Context, rec *recorder, store *profstore.Store, name string, opt experiment.Options, m map[string]float64) (*experiment.Result, error) {
	opt = resolved(opt)
	key := profstore.Key{Workload: name, Machine: opt.Machine, Seed: opt.Seed, Intervals: opt.Intervals}
	// The store runs compute on its own goroutine, so the collect span is
	// timed there and recorded once Get has returned.
	var collectStart time.Time
	var collectDur time.Duration
	var collectAlloc float64
	var insts uint64
	rec.begin("store_get", name)
	col, err := store.Get(ctx, key, func(fctx context.Context) (*profiler.CollectResult, error) {
		a0 := allocatedMB()
		collectStart = time.Now()
		c, err := profiler.CollectByName(name, profiler.CollectOptions{
			Ctx: fctx, Machine: opt.Machine, Seed: opt.Seed, Intervals: opt.Intervals,
			TraceWorkers: experiment.Workers(opt.Parallelism),
		})
		collectDur = time.Since(collectStart)
		collectAlloc = allocatedMB() - a0
		if c != nil {
			insts = c.Counters.Insts
		}
		return c, err
	})
	if collectDur > 0 {
		rec.add("collect", name, collectStart, collectDur, collectAlloc)
		m["sim_minst_per_s."+name] = float64(insts) / collectDur.Seconds() / 1e6
	}
	rec.end()
	if err != nil {
		return nil, err
	}

	rec.begin("eipv_build", name)
	set := eipv.Build(col.Profile, opt.IntervalInsts).SkipWarmup(opt.Warmup)
	rec.end()

	rec.begin("index", name)
	mtx := rtree.IndexDataset(experiment.Dataset(set))
	rec.end()
	m["features."+name] = float64(mtx.NumFeatures())

	cv, err := tracedCV(ctx, rec, name, mtx, opt)
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{
		Name:        name,
		CPIVariance: set.CPIVariance(),
		CV:          cv,
		MeanCPI:     set.MeanCPI(),
		UniqueEIPs:  mtx.NumFeatures(),
		Intervals:   len(set.Vectors),
	}
	res.Quadrant = quadrant.Classify(res.CPIVariance, cv.REOpt)
	return res, nil
}

// tracedUpload is AnalyzeProfileCtx rebuilt from public calls:
// profilefmt.DecodeBinaryBytes, Profile.Index, CrossValidateCtx and
// quadrant.Classify.
func tracedUpload(ctx context.Context, rec *recorder, name string, data []byte, opt experiment.Options, m map[string]float64) (*experiment.Result, error) {
	opt = resolved(opt)
	m["upload_bytes."+name] = float64(len(data))
	rec.begin("decode", name)
	p, err := profilefmt.DecodeBinaryBytes(data, profilefmt.Limits{})
	rec.end()
	if err != nil {
		return nil, err
	}
	rec.begin("profile_index", name)
	mtx, _, err := p.Index()
	rec.end()
	if err != nil {
		return nil, err
	}
	cv, err := tracedCV(ctx, rec, name, mtx, opt)
	if err != nil {
		return nil, err
	}
	cpis := p.CPIs()
	res := &experiment.Result{
		Name:        p.Name,
		CPIVariance: stats.Var(cpis),
		CV:          cv,
		MeanCPI:     stats.Mean(cpis),
		UniqueEIPs:  mtx.NumFeatures(),
		Intervals:   len(p.Rows),
	}
	res.Quadrant = quadrant.Classify(res.CPIVariance, cv.REOpt)
	return res, nil
}

func tracedCV(ctx context.Context, rec *recorder, name string, mtx *rtree.Matrix, opt experiment.Options) (rtree.CVResult, error) {
	a0 := allocatedMB()
	rec.begin("cv", name)
	cv, err := mtx.CrossValidateCtx(ctx, treeOptions(opt), opt.Folds, opt.Seed)
	rec.end().AllocMB = allocatedMB() - a0
	return cv, err
}

// sameResult checks that the traced pipeline's answer equals the pipeline's,
// bit for bit, on every field the traced calls determine.
func sameResult(traced, want *experiment.Result) error {
	if traced.Name != want.Name ||
		traced.CPIVariance != want.CPIVariance ||
		traced.MeanCPI != want.MeanCPI ||
		traced.UniqueEIPs != want.UniqueEIPs ||
		traced.Intervals != want.Intervals ||
		traced.Quadrant != want.Quadrant ||
		!reflect.DeepEqual(traced.CV, want.CV) {
		return fmt.Errorf("%s: traced pipeline's Result differs from the pipeline's (RE_kopt %v vs %v, k %d vs %d)",
			want.Name, traced.CV.REOpt, want.CV.REOpt, traced.CV.KOpt, want.CV.KOpt)
	}
	return nil
}

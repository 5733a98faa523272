package experiment

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/cpu"
	"repro/internal/db"
	"repro/internal/eipv"
	"repro/internal/quadrant"
	"repro/internal/rtree"
	"repro/internal/sampling"
	"repro/internal/specgen"
	"repro/internal/workload"
)

// Curve is one relative-error-vs-k series (the paper's Figures 2, 6-8, 10).
type Curve struct {
	Name string
	RE   []float64 // RE[k-1] for k = 1..len
	KOpt int
	// REOpt is the curve minimum (the paper's RE_kopt).
	REOpt float64
}

func curveOf(res *Result, name string) Curve {
	return Curve{Name: name, RE: res.CV.RE, KOpt: res.CV.KOpt, REOpt: res.CV.REOpt}
}

// analyzeMany fans Analyze out across names on the options' worker budget
// and returns of(result) for each, in input order.
func analyzeMany[T any](ctx context.Context, names []string, opt Options, of func(*Result) T) ([]T, error) {
	return fanOut(ctx, opt, len(names), func(ctx context.Context, i int, inner Options) (T, error) {
		res, err := AnalyzeCtx(ctx, names[i], inner)
		if err != nil {
			var zero T
			return zero, err
		}
		return of(res), nil
	})
}

// Curves returns each named workload's RE-vs-k curve.
func Curves(ctx context.Context, names []string, opt Options) ([]Curve, error) {
	return analyzeMany(ctx, names, opt, func(res *Result) Curve { return curveOf(res, res.Name) })
}

// SpreadData is one workload's EIP & CPI spread (Figures 3, 9, 11).
type SpreadData struct {
	Name        string
	Points      []eipv.SpreadPoint
	UniqueEIPs  int
	CPIVariance float64
	Seconds     float64
}

func spreadOf(res *Result) SpreadData {
	pts, unique := eipv.Spread(res.Profile)
	secs := 0.0
	if len(pts) > 0 {
		secs = pts[len(pts)-1].Seconds - pts[0].Seconds
	}
	return SpreadData{
		Name:        res.Name,
		Points:      pts,
		UniqueEIPs:  unique,
		CPIVariance: res.CPIVariance,
		Seconds:     secs,
	}
}

// Spreads returns each named workload's EIP & CPI spread.
func Spreads(ctx context.Context, names []string, opt Options) ([]SpreadData, error) {
	return analyzeMany(ctx, names, opt, spreadOf)
}

// BreakdownSeries is a per-interval CPI decomposition (Figures 4, 5, 12).
type BreakdownSeries struct {
	Name                 string
	Work, FE, EXE, Other []float64
	// EXEShare is EXE's mean fraction of CPI (the paper's headline:
	// >50% for ODB-C, 30-40% for SjAS).
	EXEShare float64
}

func breakdownOf(res *Result) BreakdownSeries {
	b := BreakdownSeries{Name: res.Name}
	var exeSum, cpiSum float64
	for _, v := range res.Set.Vectors {
		b.Work = append(b.Work, v.Work)
		b.FE = append(b.FE, v.FE)
		b.EXE = append(b.EXE, v.EXE)
		b.Other = append(b.Other, v.Other)
		exeSum += v.EXE
		cpiSum += v.CPI
	}
	if cpiSum > 0 {
		b.EXEShare = exeSum / cpiSum
	}
	return b
}

// Breakdowns returns each named workload's per-interval CPI breakdown.
func Breakdowns(ctx context.Context, names []string, opt Options) ([]BreakdownSeries, error) {
	return analyzeMany(ctx, names, opt, breakdownOf)
}

// ThreadComparison is a Figures 6/7 pair: RE with and without thread
// separation.
type ThreadComparison struct {
	Name     string
	NoThread Curve
	Thread   Curve
}

// ThreadComparisons returns each named workload's RE curve with and
// without thread separation.
func ThreadComparisons(ctx context.Context, names []string, opt Options) ([]ThreadComparison, error) {
	return fanOut(ctx, opt, len(names), func(ctx context.Context, i int, inner Options) (ThreadComparison, error) {
		name := names[i]
		noThread, err := AnalyzeCtx(ctx, name, inner)
		if err != nil {
			return ThreadComparison{}, err
		}
		inner.ThreadSeparated = true
		thread, err := AnalyzeCtx(ctx, name, inner)
		if err != nil {
			return ThreadComparison{}, err
		}
		return ThreadComparison{
			Name:     name,
			NoThread: curveOf(noThread, name+".nothread"),
			Thread:   curveOf(thread, name+".thread"),
		}, nil
	})
}

// figureKind says which constructor and renderer a figure uses.
type figureKind int

const (
	kindCurves    figureKind = iota // RE-vs-k curves; has a CSV form
	kindSpread                      // EIP & CPI spread; has a CSV form
	kindBreakdown                   // CPI breakdown
	kindThreads                     // RE with and without thread separation
	kindQuadrants                   // the quadrant space
)

// figure is one paper figure's recipe.
type figure struct {
	// heading is the first output line; empty for kinds whose renderer
	// prints its own.
	heading string
	names   []string
	kind    figureKind
}

// figures is the paper's figures 2-13, keyed by id (figure 1 is part of
// table 1).
var figures = map[int]figure{
	2:  {"Figure 2: relative error trend for ODB-C & SjAS", []string{"odb-c", "sjas"}, kindCurves},
	3:  {"Figure 3: EIP & CPI spread of ODB-C and SjAS", []string{"odb-c", "sjas"}, kindSpread},
	4:  {"", []string{"odb-c"}, kindBreakdown},
	5:  {"", []string{"sjas"}, kindBreakdown},
	6:  {"", []string{"odb-c"}, kindThreads},
	7:  {"", []string{"sjas"}, kindThreads},
	8:  {"Figure 8: relative error trend for Q13", []string{"odb-h.q13"}, kindCurves},
	9:  {"Figure 9: EIP & CPI spread for Q13", []string{"odb-h.q13"}, kindSpread},
	10: {"Figure 10: relative error trend for Q18", []string{"odb-h.q18"}, kindCurves},
	11: {"Figure 11: EIP & CPI spread for Q18", []string{"odb-h.q18"}, kindSpread},
	12: {"", []string{"odb-h.q18"}, kindBreakdown},
	13: {"", nil, kindQuadrants},
}

// FigureID returns the figure whose id is written exactly as s ("7", not
// "07", "+7" or "7x").
func FigureID(s string) (int, bool) {
	for id := range figures {
		if strconv.Itoa(id) == s {
			return id, true
		}
	}
	return 0, false
}

// Figure renders paper figure id on w as text or, for the curve and
// spread figures, as CSV for external plotting.
func Figure(ctx context.Context, id int, opt Options, w io.Writer, csv bool) error {
	f, ok := figures[id]
	if csv && (!ok || (f.kind != kindCurves && f.kind != kindSpread)) {
		return fmt.Errorf("no CSV form for figure %d (available: 2, 3, 8, 9, 10, 11)", id)
	}
	if !ok {
		return fmt.Errorf("fuzzyphase: no figure %d (the paper has figures 1-13; figure 1 is part of table 1)", id)
	}
	switch f.kind {
	case kindCurves:
		curves, err := Curves(ctx, f.names, opt)
		if err != nil {
			return err
		}
		if csv {
			RenderCurvesCSV(w, curves)
		} else {
			RenderCurves(w, f.heading, curves)
		}
	case kindSpread:
		spreads, err := Spreads(ctx, f.names, opt)
		if err != nil {
			return err
		}
		if !csv {
			fmt.Fprintln(w, f.heading)
		}
		for _, s := range spreads {
			if csv {
				RenderSpreadCSV(w, s)
			} else {
				RenderSpread(w, s)
			}
		}
	case kindBreakdown:
		series, err := Breakdowns(ctx, f.names, opt)
		if err != nil {
			return err
		}
		for _, b := range series {
			RenderBreakdown(w, b)
		}
	case kindThreads:
		pairs, err := ThreadComparisons(ctx, f.names, opt)
		if err != nil {
			return err
		}
		for _, tc := range pairs {
			RenderThreadComparison(w, tc)
		}
	case kindQuadrants:
		RenderFigure13(w, Figure13())
	}
	return nil
}

// Figure13Cell describes one quadrant of the classification space.
type Figure13Cell struct {
	Quadrant  quadrant.Quadrant
	VarLabel  string
	RELabel   string
	Technique sampling.Technique
	Rationale string
}

// Figure13 reproduces the quadrant-space definition.
func Figure13() []Figure13Cell {
	mk := func(q quadrant.Quadrant, v, r string) Figure13Cell {
		return Figure13Cell{Quadrant: q, VarLabel: v, RELabel: r,
			Technique: quadrant.Recommend(q), Rationale: quadrant.Rationale(q)}
	}
	return []Figure13Cell{
		mk(quadrant.QI, "<= 0.01", "> 0.15"),
		mk(quadrant.QII, "<= 0.01", "<= 0.15"),
		mk(quadrant.QIII, "> 0.01", "> 0.15"),
		mk(quadrant.QIV, "> 0.01", "<= 0.15"),
	}
}

// Table1Result is the worked example's reproduction (Table 1 + Figure 1).
type Table1Result struct {
	Data   rtree.Dataset
	Splits []rtree.Split
	// ChamberCPI maps each EIPV index to its chamber's mean CPI.
	ChamberCPI []float64
}

// Table1 builds the paper's example regression tree.
func Table1() Table1Result {
	data := rtree.ExampleTable1()
	tree := rtree.Build(data, rtree.Options{MaxLeaves: 4, MinLeaf: 1})
	out := Table1Result{Data: data, Splits: tree.Splits()}
	for _, p := range data {
		out.ChamberCPI = append(out.ChamberCPI, tree.Predict(p.Counts))
	}
	return out
}

// Table2Row is one benchmark's classification (the paper's Table 2).
type Table2Row struct {
	Name     string
	Group    string // "server", "odb-h", "spec"
	CPIVar   float64
	REOpt    float64
	KOpt     int
	Quadrant quadrant.Quadrant
	// Target is the paper's placement (empty when the paper's table is
	// ambiguous for this entry).
	Target string
	// Elapsed is how long this workload's Analyze call took (near zero on
	// a cache hit). It is diagnostic only and never rendered in the table.
	Elapsed time.Duration
}

// Table2Workloads lists the full suite in presentation order.
func Table2Workloads() []Table2Row {
	rows := []Table2Row{
		{Name: "odb-c", Group: "server", Target: "Q-I"},
		{Name: "sjas", Group: "server", Target: "Q-III"},
	}
	for _, q := range db.Queries() {
		target := ""
		switch q.Behavior {
		case db.ScanJoinSort:
			target = "Q-IV"
		case db.IndexErratic:
			target = "Q-III"
		case db.UniformScan:
			target = "Q-I"
		case db.SubtlePhases:
			target = "Q-II"
		}
		rows = append(rows, Table2Row{Name: fmt.Sprintf("odb-h.q%d", q.ID), Group: "odb-h", Target: target})
	}
	names := specgen.Names()
	sort.Strings(names)
	for _, n := range names {
		rows = append(rows, Table2Row{Name: "spec." + n, Group: "spec", Target: specgen.TargetQuadrant[n]})
	}
	return rows
}

// Table2 classifies every workload in the suite, fanning the per-workload
// analyses across Options.Parallelism workers; ctx cancels the fan-out and
// the in-flight analyses. progress, if non-nil, is called after each
// workload (CLI feedback; a cold full-suite analysis takes minutes). Even
// under parallel execution, progress fires in table order, one call at a
// time — completion of row i is reported only after rows 0..i-1 have been
// reported.
func Table2(ctx context.Context, opt Options, progress func(name string, row Table2Row)) ([]Table2Row, error) {
	rows := Table2Workloads()
	var gate *progressGate
	if progress != nil {
		gate = newProgressGate(len(rows), func(i int) {
			progress(rows[i].Name, rows[i])
		})
	}
	return fanOut(ctx, opt, len(rows), func(ctx context.Context, i int, inner Options) (Table2Row, error) {
		start := time.Now()
		row := &rows[i]
		res, err := AnalyzeCtx(ctx, row.Name, inner)
		if err != nil {
			return Table2Row{}, fmt.Errorf("table2: %s: %w", row.Name, err)
		}
		row.CPIVar = res.CPIVariance
		row.REOpt = res.CV.REOpt
		row.KOpt = res.CV.KOpt
		row.Quadrant = res.Quadrant
		row.Elapsed = time.Since(start)
		gate.done(i)
		return *row, nil
	})
}

// QuadrantCensus tallies rows per quadrant and group.
func QuadrantCensus(rows []Table2Row) map[string]map[quadrant.Quadrant]int {
	out := map[string]map[quadrant.Quadrant]int{}
	for _, r := range rows {
		if out[r.Group] == nil {
			out[r.Group] = map[quadrant.Quadrant]int{}
		}
		out[r.Group][r.Quadrant]++
	}
	return out
}

// TreeVsKMeans is the §4.6 comparison for one workload, under the paper's
// protocol: "we choose k-values independently from both schemes, where the
// k value is less than 50 and the performance predictability is minimized
// for each algorithm respectively". Both algorithms partition the same
// EIPVs into at most 50 groups and are scored by the same in-sample
// relative error (within-group CPI MSE over total CPI variance). K-means
// never sees CPI when forming clusters — the paper's point — so wherever
// code and CPI decouple it falls behind.
type TreeVsKMeans struct {
	Name string
	// TreeRE is the tree's minimized in-sample RE (k <= 50).
	TreeRE float64
	// TreeCV is the honest cross-validated RE_kopt, for reference.
	TreeCV  float64
	KMeans  float64 // best in-sample K-means RE over k <= 50
	KMeansK int
	// Improvement is (KMeans - TreeRE) / KMeans when positive.
	Improvement float64
}

// Section46Workloads are the paper's §4.6 comparison workloads: the
// default of `fuzzyphase compare-kmeans` and results/section46.txt.
var Section46Workloads = []string{"sjas", "odb-h.q2", "odb-h.q13", "odb-h.q18", "spec.gcc", "spec.mcf"}

// Section46 compares regression trees against K-means clustering on the
// given workloads (the paper reports an average ~80% improvement in CPI
// predictability across its suite).
func Section46(ctx context.Context, names []string, opt Options) ([]TreeVsKMeans, error) {
	return fanOut(ctx, opt, len(names), func(ctx context.Context, i int, inner Options) (TreeVsKMeans, error) {
		name := names[i]
		res, err := AnalyzeCtx(ctx, name, inner)
		if err != nil {
			return TreeVsKMeans{}, err
		}
		maxK := inner.withDefaults().MaxLeaves
		km, kk, err := res.KMeans.BestRE(res.Set.CPIs(), maxK, inner.Seed)
		if err != nil {
			return TreeVsKMeans{}, err
		}
		tree := res.Matrix.Build(rtree.Options{MaxLeaves: maxK, MinLeaf: 2, Parallelism: inner.Parallelism})
		treeRE := tree.InSampleRE(tree.Leaves())
		row := TreeVsKMeans{Name: name, TreeRE: treeRE, TreeCV: res.CV.REOpt, KMeans: km, KMeansK: kk}
		if km > 0 {
			row.Improvement = (km - treeRE) / km
		}
		return row, nil
	})
}

// SamplingRow is one workload's §7 sampling-technique evaluation.
type SamplingRow struct {
	Name      string
	Quadrant  quadrant.Quadrant
	Evals     []sampling.Eval
	Recommend sampling.Technique
	// RequiredFor2Pct is the random-sample budget the statistical
	// error-bound math demands for a 2% CPI estimate — tiny for Q-I/Q-II
	// workloads, large exactly where the paper prescribes statistical
	// sampling.
	RequiredFor2Pct int
}

// Section7Workloads are the §7 evaluation's workloads: what `fuzzyphase
// sampling` runs and results/section7.txt archives.
var Section7Workloads = []string{"odb-c", "odb-h.q4", "odb-h.q13", "odb-h.q18", "spec.mcf", "spec.gzip"}

// Section7Budget is the §7 evaluation's per-technique interval budget.
const Section7Budget = 10

// Section7Sampling evaluates every sampling technique — the paper's four
// plus two-phase stratified (Ekman) — on every named workload with the
// given interval budget; each technique becomes one column of the §7
// table in presentation order (sampling.Techniques).
func Section7Sampling(ctx context.Context, names []string, budget int, opt Options) ([]SamplingRow, error) {
	return fanOut(ctx, opt, len(names), func(ctx context.Context, i int, inner Options) (SamplingRow, error) {
		name := names[i]
		res, err := AnalyzeCtx(ctx, name, inner)
		if err != nil {
			return SamplingRow{}, err
		}
		evals, err := sampling.Evaluate(res.Set.CPIs(), res.KMeans, budget, inner.Seed)
		if err != nil {
			return SamplingRow{}, err
		}
		needed, err := sampling.RequiredSamples(res.Set.CPIs(), 0.02)
		if err != nil {
			return SamplingRow{}, err
		}
		return SamplingRow{
			Name:            name,
			Quadrant:        res.Quadrant,
			Evals:           evals,
			Recommend:       quadrant.Recommend(res.Quadrant),
			RequiredFor2Pct: needed,
		}, nil
	})
}

// SweepRow is one configuration of the §7.1 robustness sweeps.
type SweepRow struct {
	Label   string
	Name    string
	CPIVar  float64
	REOpt   float64
	MeanCPI float64
}

// The §7.1 sweeps' workloads and table titles: what `fuzzyphase
// sweep-interval` and `sweep-machine` print and results/ archives.
var (
	IntervalSweepWorkloads = []string{"odb-h.q13", "odb-h.q18", "spec.mcf"}
	MachineSweepWorkloads  = []string{"odb-c", "odb-h.q13", "spec.mcf"}
)

const (
	IntervalSweepTitle = "EIPV interval-size sweep (paper 7.1)"
	MachineSweepTitle  = "machine-model sweep (paper 7.1)"
)

// sweep analyzes every named workload under every configuration (set
// applies config c to a copy of the options) and returns the rows
// workload-major.
func sweep(ctx context.Context, names []string, opt Options, labels []string, set func(o *Options, c int)) ([]SweepRow, error) {
	return fanOut(ctx, opt, len(names)*len(labels), func(ctx context.Context, i int, inner Options) (SweepRow, error) {
		name, c := names[i/len(labels)], i%len(labels)
		set(&inner, c)
		res, err := AnalyzeCtx(ctx, name, inner)
		if err != nil {
			return SweepRow{}, err
		}
		return SweepRow{
			Label:   labels[c],
			Name:    name,
			CPIVar:  res.CPIVariance,
			REOpt:   res.CV.REOpt,
			MeanCPI: res.MeanCPI,
		}, nil
	})
}

// Section71Intervals sweeps the EIPV interval length (the paper's
// 100M/50M/10M instructions): shrinking intervals raises both CPI variance
// and relative error. The simulated length stays the same, so shorter
// intervals give more vectors.
func Section71Intervals(ctx context.Context, names []string, opt Options) ([]SweepRow, error) {
	insts := []uint64{workload.IntervalInsts, workload.IntervalInsts / 2, workload.IntervalInsts / 10}
	return sweep(ctx, names, opt, []string{"100M", "50M", "10M"}, func(o *Options, c int) {
		o.IntervalInsts = insts[c]
	})
}

// Section71Machines sweeps the machine model (Itanium 2 vs Pentium 4 vs
// Xeon): the paper reports higher CPI variance on the P4-class machines
// but broadly unchanged quadrant structure.
func Section71Machines(ctx context.Context, names []string, opt Options) ([]SweepRow, error) {
	machines := []cpu.Config{cpu.Itanium2(), cpu.PentiumIV(), cpu.Xeon()}
	labels := make([]string, len(machines))
	for i, m := range machines {
		labels[i] = m.Name
	}
	return sweep(ctx, names, opt, labels, func(o *Options, c int) {
		o.Machine = machines[c]
	})
}

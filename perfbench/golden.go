package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiment"
)

// golden is the part of the results/ archive the benchmark checks its
// answers against. Every artifact there is generated at the options
// analysisOptions uses, so an analysis the benchmark runs must reproduce
// it exactly.
type golden struct {
	// table2 maps a workload to its Table-2 columns as printed:
	// cpi-var, RE_kopt, k, quadrant.
	table2 map[string][4]string
	// summary maps a workload to its archived Summary text.
	summary map[string]string
	// text maps an artifact file name (section46.txt, section7.txt) to its
	// archived bytes.
	text map[string]string
}

// summaryFiles names the archived Summary artifacts.
var summaryFiles = map[string]string{"odb-c": "odbc.txt", "sjas": "sjas.txt"}

func loadGolden(root string) (*golden, error) {
	read := func(name string) (string, error) {
		b, err := os.ReadFile(filepath.Join(root, "results", name))
		if err != nil {
			return "", fmt.Errorf("golden archive: %w", err)
		}
		return string(b), nil
	}
	g := &golden{table2: map[string][4]string{}, summary: map[string]string{}, text: map[string]string{}}
	t2, err := read("table2.txt")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(t2, "\n") {
		// benchmark group cpi-var RE_kopt k quad paper [*MISMATCH*]
		f := strings.Fields(line)
		if len(f) >= 7 && f[0] != "benchmark" {
			g.table2[f[0]] = [4]string{f[2], f[3], f[4], f[5]}
		}
	}
	for name, file := range summaryFiles {
		if g.summary[name], err = read(file); err != nil {
			return nil, err
		}
	}
	for _, a := range sectionArtifacts {
		if g.text[a.name], err = read(a.name); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// table2Row renders res's Table-2 columns exactly as RenderTable2 prints
// them.
func table2Row(res *experiment.Result) [4]string {
	return [4]string{
		fmt.Sprintf("%.4f", res.CPIVariance),
		fmt.Sprintf("%.3f", res.CV.REOpt),
		fmt.Sprintf("%d", res.CV.KOpt),
		res.Quadrant.String(),
	}
}

// check compares an analysis of a golden workload with the archive: its
// Table-2 row and, where archived, its whole Summary.
func (g *golden) check(res *experiment.Result) error {
	want, ok := g.table2[res.Name]
	if !ok {
		return fmt.Errorf("%s: no Table-2 row in the golden archive", res.Name)
	}
	if got := table2Row(res); got != want {
		return fmt.Errorf("%s: Table-2 row (cpi-var, RE_kopt, k, quadrant) = %v, golden %v", res.Name, got, want)
	}
	if want, ok := g.summary[res.Name]; ok {
		if got := experiment.Summary(res); got != want {
			return fmt.Errorf("%s: Summary differs from the golden archive:\n%s", res.Name, got)
		}
	}
	return nil
}

package experiment

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/memo"
)

// TestCacheCostAccounting checks CostBytes tracks retention through
// resultCost: it grows with inserts and returns to zero on invalidation,
// which InvalidateAnalysisCache counts.
func TestCacheCostAccounting(t *testing.T) {
	c := memo.New(resultCost)
	for i := 0; i < 3; i++ {
		if _, err := c.Get(context.Background(), fmt.Sprintf("k%d", i), func(context.Context) (*Result, error) {
			return &Result{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if want := 3 * resultCost(&Result{}); st.CostBytes != want {
		t.Fatalf("CostBytes = %d, want %d", st.CostBytes, want)
	}
	c.Reset()
	st = c.Stats()
	if st.CostBytes != 0 || st.Entries != 0 {
		t.Fatalf("after reset: %+v", st)
	}

	before := AnalysisCacheStats().Invalidations
	InvalidateAnalysisCache()
	if got := AnalysisCacheStats().Invalidations; got != before+1 {
		t.Fatalf("Invalidations = %d after one invalidation, want %d", got, before+1)
	}
}

package experiment

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestFigureTable locks the figure table's surface: figures 2-13 render
// as text, ids outside it keep their error, and CSV is offered for
// exactly the curve and spread figures.
func TestFigureTable(t *testing.T) {
	opt := Options{Intervals: 40, Warmup: 4, Seed: 1}
	ctx := context.Background()
	hasCSV := map[int]bool{2: true, 3: true, 8: true, 9: true, 10: true, 11: true}
	for id := 1; id <= 14; id++ {
		var text, csv bytes.Buffer
		err := Figure(ctx, id, opt, &text, false)
		csvErr := Figure(ctx, id, opt, &csv, true)

		if id < 2 || id > 13 {
			want := fmt.Sprintf("fuzzyphase: no figure %d (the paper has figures 1-13; figure 1 is part of table 1)", id)
			if err == nil || err.Error() != want {
				t.Errorf("figure %d: err %v, want %q", id, err, want)
			}
		} else if err != nil || text.Len() == 0 {
			t.Errorf("figure %d: err %v, %d bytes", id, err, text.Len())
		}

		if hasCSV[id] {
			if csvErr != nil || !strings.Contains(strings.SplitN(csv.String(), "\n", 2)[0], ",") {
				t.Errorf("figure %d -csv: err %v, header %q", id, csvErr, strings.SplitN(csv.String(), "\n", 2)[0])
			}
		} else {
			want := fmt.Sprintf("no CSV form for figure %d (available: 2, 3, 8, 9, 10, 11)", id)
			if csvErr == nil || csvErr.Error() != want {
				t.Errorf("figure %d -csv: err %v, want %q", id, csvErr, want)
			}
		}
	}
}

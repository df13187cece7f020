package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata golden files from the current code")

// table2GoldenPath is the paper-level golden: every Table 2 CCA at
// QuickScale, seed 1, with the static DSL hint.
const table2GoldenPath = "testdata/table2_quick_seed1.golden"

// formatTable2Golden renders one line per row: CCA, DSL hint, the exact
// Float64bits of the synthesized and fine-tuned distances, and the
// synthesized handler. The %.6g columns are for the reader; the bits are
// what the comparison pins.
func formatTable2Golden(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("# cca\tdsl\tsynth_bits\tfine_bits\tsynth\tfine\thandler\n")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&b, "%s\t%s\terror: %v\n", r.CCA, r.DSLName, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%s\t%s\t%016x\t%016x\t%.6g\t%.6g\t%s\n",
			r.CCA, r.DSLName,
			math.Float64bits(r.SynthDistance), math.Float64bits(r.FineDistance),
			r.SynthDistance, r.FineDistance, r.Synthesized)
	}
	return b.String()
}

// TestTable2Golden pins the paper-level outcome: the winning handler and
// the bit-exact distances of every Table 2 row. Equivalence tests between
// execution strategies cannot catch all strategies drifting together;
// this can. Regenerate with
//
//	go test ./internal/experiments -run TestTable2Golden -update
//
// and explain every changed line.
func TestTable2Golden(t *testing.T) {
	rows, err := Table2(nil, QuickScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := formatTable2Golden(rows)
	if *update {
		if err := os.MkdirAll(filepath.Dir(table2GoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(table2GoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(table2GoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

package bench

import (
	"strings"
	"testing"

	"faultyrank/internal/graph"
)

func TestParseScale(t *testing.T) {
	cases := map[string]Scale{
		"smoke": ScaleSmoke, "default": ScaleDefault, "": ScaleDefault,
		"paper": ScalePaper, "full": ScalePaper, "PAPER": ScalePaper,
	}
	for in, want := range cases {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"xxxxxxx", "1"}, {"y", "2"}},
		Notes:   []string{"hello"},
	}
	out := tab.Render()
	for _, want := range []string{"=== T ===", "long-column", "xxxxxxx", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Reproduction(t *testing.T) {
	tab := Table2()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// c.prop and d.id are the minima (column 3 is prop, column 1 is id).
	if tab.Rows[2][3] >= tab.Rows[0][3] || tab.Rows[3][1] >= tab.Rows[0][1] {
		t.Errorf("faulty fields not minimal: %+v", tab.Rows)
	}
}

func TestTable3Smoke(t *testing.T) {
	tab := Table3(ScaleSmoke)
	if len(tab.Rows) != 4 { // amazon, roadnet, 2 rmat scales
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[1] == "0" || r[2] == "0" {
			t.Errorf("empty dataset row: %v", r)
		}
	}
}

func TestTable4And5Smoke(t *testing.T) {
	t4 := Table4(ScaleSmoke, 0)
	if len(t4.Rows) != 4 {
		t.Fatalf("t4 rows = %d", len(t4.Rows))
	}
	t5 := Table5(ScaleSmoke, 0)
	if len(t5.Rows) != 4 {
		t.Fatalf("t5 rows = %d", len(t5.Rows))
	}
	// Degree sweep: edges must grow with degree.
	if !(t5.Rows[0][1] < t5.Rows[3][1]) && len(t5.Rows[0][1]) >= len(t5.Rows[3][1]) {
		t.Errorf("edge counts not increasing: %v", t5.Rows)
	}
	// The allocated column is measured, so it covers at least what the
	// run keeps: the bidirected CSR plus the kernel's five n-vectors (id,
	// prop, sID, sProp, invW).
	for _, mk := range datasetSpecs(ScaleSmoke) {
		d := mk()
		r := MeasureDataset(d.Name, d.Vertices, d.Edges, 0)
		held := graph.NewBidirectedUntyped(d.Vertices, d.Edges, 0).MemoryBytes() + 5*8*int64(d.Vertices)
		if r.AllocBytes < held {
			t.Errorf("%s: allocated %d B, below the %d B the graph and rank vectors hold", d.Name, r.AllocBytes, held)
		}
	}
}

func TestFig7CompareSmoke(t *testing.T) {
	rows, err := Fig7Compare(ScaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.FRIdentified {
			t.Errorf("%v: FaultyRank missed the root cause", r.Scenario)
		}
		if !r.FRRepaired {
			t.Errorf("%v: FaultyRank repair did not restore consistency", r.Scenario)
		}
	}
	// The paper's headline contrast: LFSCK strands data or recreates
	// stubs in most scenarios.
	var lfDamage int
	for _, r := range rows {
		if r.LFStranded > 0 || r.LFStubs > 0 {
			lfDamage++
		}
	}
	if lfDamage < 4 {
		t.Errorf("LFSCK handled too many scenarios cleanly (%d damaged) — baseline too strong?", lfDamage)
	}
	out := Fig7Table(rows).Render()
	if !strings.Contains(out, "dangling") {
		t.Error("table render incomplete")
	}
}

func TestAblationFalsePositivesSmoke(t *testing.T) {
	tab, err := AblationFalsePositives(ScaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(AblationConfigs()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[1] != "0" {
			t.Errorf("config %q has %s findings on a clean cluster", r[0], r[1])
		}
	}
}

func TestAblationMatrixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix runs 8 scenarios × all configs")
	}
	tab, err := AblationMatrix(ScaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for i, cell := range row[1:] {
			if cell != "yes" {
				t.Errorf("%s under %q: root cause missed", row[0], tab.Columns[i+1])
			}
		}
	}
}

func TestTableDNESmoke(t *testing.T) {
	tab, err := TableDNE(ScaleSmoke, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Placement must not change the logical graph.
	for _, r := range tab.Rows[1:] {
		if r[2] != tab.Rows[0][2] || r[3] != tab.Rows[0][3] {
			t.Errorf("graph drifted across placements: %v vs %v", r, tab.Rows[0])
		}
	}
}

func TestTable6Smoke(t *testing.T) {
	rows, err := Table6Measure(ScaleSmoke, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FaultyRank <= 0 || r.LFSCK <= 0 {
			t.Errorf("missing timings: %+v", r)
		}
		if r.TScan+r.TGraph+r.TFR != r.FaultyRank {
			t.Errorf("stage times do not sum: %+v", r)
		}
	}
	if rows[1].MDTInodes <= rows[0].MDTInodes {
		t.Errorf("aging did not grow: %+v", rows)
	}
	out := Table6(rows).Render()
	if !strings.Contains(out, "speedup") {
		t.Error("table render incomplete")
	}
}

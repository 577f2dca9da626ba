package report

import (
	"bytes"
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		Title:   "T",
		Headers: []string{"a", "b"},
		Notes:   []string{"hello"},
	}
	t.AddRow("x", 1.5)
	t.AddRow("longer-cell", 0.25)
	return t
}

func TestRenderAligned(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "T\n") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "longer-cell") || !strings.Contains(out, "note: hello") {
		t.Errorf("missing content:\n%s", out)
	}
	// Header separator present.
	if !strings.Contains(out, "---") {
		t.Error("missing separator")
	}
}

func TestAddRowFormatting(t *testing.T) {
	tbl := &Table{Headers: []string{"v"}}
	tbl.AddRow(3.0)
	tbl.AddRow(3.14159)
	tbl.AddRow(42)
	if tbl.Rows[0][0] != "3" {
		t.Errorf("3.0 rendered as %q", tbl.Rows[0][0])
	}
	if tbl.Rows[1][0] != "3.142" {
		t.Errorf("pi rendered as %q", tbl.Rows[1][0])
	}
	if tbl.Rows[2][0] != "42" {
		t.Errorf("int rendered as %q", tbl.Rows[2][0])
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.125) != "12.5%" {
		t.Error(Pct(0.125))
	}
	if MWRange([2]float64{0.03, 0.05}) != "30-50" {
		t.Error(MWRange([2]float64{0.03, 0.05}))
	}
	if MWRange([2]float64{0.007, 0.007}) != "7" {
		t.Error(MWRange([2]float64{0.007, 0.007}))
	}
	if US(12.34) != "12.3us" {
		t.Error(US(12.34))
	}
	if W(1.443) != "1.44W" {
		t.Error(W(1.443))
	}
}

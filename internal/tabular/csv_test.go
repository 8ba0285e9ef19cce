package tabular

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// The test inputs below also seed FuzzReadCSV.
const (
	basicCSV = `age,income,city,label
25,50000,berlin,yes
30,60000,hamburg,no
35,?,berlin,yes
40,80000,munich,no
`
	targetFirstCSV = `label,x
a,1
b,2
a,3
`
	headerlessCSV    = "1,2,0\n3,4,1\n5,6,0\n7,8,1\n"
	numericTargetCSV = "x,y\n1.5,0\n2.5,1\n3.5,2\n4.5,1\n"
)

func TestReadCSVBasic(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader(basicCSV), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rows() != 4 || ds.Features() != 3 {
		t.Fatalf("shape %dx%d, want 4x3", ds.Rows(), ds.Features())
	}
	if ds.Classes != 2 {
		t.Errorf("classes %d, want 2", ds.Classes)
	}
	// Labels are sorted codes: "no"=0, "yes"=1.
	if ds.Y[0] != 1 || ds.Y[1] != 0 {
		t.Errorf("labels %v", ds.Y)
	}
	// Numeric columns parsed, missing cell is NaN.
	if ds.Cols[0][0] != 25 || ds.Cols[1][0] != 50000 {
		t.Errorf("numeric row %v", ds.All().Row(0, nil))
	}
	if !math.IsNaN(ds.Cols[1][2]) {
		t.Errorf("missing income %v, want NaN", ds.Cols[1][2])
	}
	// City is categorical with sorted codes: berlin=0, hamburg=1,
	// munich=2.
	if ds.Kind(2) != Categorical {
		t.Error("city not categorical")
	}
	if ds.Cols[2][0] != 0 || ds.Cols[2][1] != 1 || ds.Cols[2][3] != 2 {
		t.Errorf("city codes %v %v %v", ds.Cols[2][0], ds.Cols[2][1], ds.Cols[2][3])
	}
}

func TestReadCSVTargetColumn(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader(targetFirstCSV), CSVOptions{TargetColumn: "label"})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Features() != 1 || ds.Classes != 2 {
		t.Fatalf("shape %d features %d classes", ds.Features(), ds.Classes)
	}
	if ds.Y[0] != 0 || ds.Y[1] != 1 || ds.Y[2] != 0 {
		t.Errorf("labels %v", ds.Y)
	}
	if _, err := ReadCSV(strings.NewReader(targetFirstCSV), CSVOptions{TargetColumn: "nope"}); err == nil {
		t.Error("missing target column accepted")
	}
}

func TestReadCSVHeaderless(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader(headerlessCSV), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rows() != 4 {
		t.Errorf("headerless csv lost rows: %d", ds.Rows())
	}
	if ds.Classes != 2 {
		t.Errorf("classes %d", ds.Classes)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), CSVOptions{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n"), CSVOptions{}); err == nil {
		t.Error("header-only input accepted")
	}
	// A target column alone has no features to learn from.
	if _, err := ReadCSV(strings.NewReader("label\na\nb\n"), CSVOptions{}); err == nil || !strings.Contains(err.Error(), "feature column") {
		t.Errorf("target-only csv: %v, want a missing-feature error", err)
	}
	// Ragged row (csv reader itself rejects).
	if _, err := ReadCSV(strings.NewReader("a,b\n1\n"), CSVOptions{}); err == nil {
		t.Error("ragged row accepted")
	}
	// High-cardinality string feature (identifier-like).
	var sb strings.Builder
	sb.WriteString("id,label\n")
	for i := 0; i < 100; i++ {
		sb.WriteString(strings.Repeat("x", i%7+1))
		if i%2 == 0 {
			sb.WriteString(string(rune('a'+i%26)) + "q" + string(rune('0'+i%10)))
		}
		sb.WriteString(",")
		if i%2 == 0 {
			sb.WriteString("p\n")
		} else {
			sb.WriteString("q\n")
		}
	}
	// Build distinct ids properly.
	var sb2 strings.Builder
	sb2.WriteString("id,label\n")
	for i := 0; i < 100; i++ {
		sb2.WriteString("user")
		sb2.WriteString(strings.Repeat("z", i%3))
		sb2.WriteString(string(rune('a' + i%26)))
		sb2.WriteString(string(rune('0' + (i/26)%10)))
		sb2.WriteString(",p\n")
	}
	_, err := ReadCSV(strings.NewReader(sb2.String()), CSVOptions{MaxCategories: 16})
	if err == nil {
		t.Error("identifier-like column accepted")
	}
}

func TestReadCSVNumericTarget(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader(numericTargetCSV), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Classes != 3 {
		t.Errorf("classes %d, want 3", ds.Classes)
	}

	// Numeric labels are codes of the sorted label strings, not their
	// values: with 11 classes "10" sorts between "1" and "2".
	var sb strings.Builder
	sb.WriteString("x,y\n")
	for c := 0; c <= 10; c++ {
		fmt.Fprintf(&sb, "%d.5,%d\n", c, c)
	}
	ds, err = ReadCSV(strings.NewReader(sb.String()), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Classes != 11 {
		t.Fatalf("classes %d, want 11", ds.Classes)
	}
	// Label strings 0..10 in row order; sorted: 0 1 10 2 3 ... 9.
	want := []int{0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 2}
	for i, y := range ds.Y {
		if y != want[i] {
			t.Fatalf("labels %v, want string-sorted codes %v", ds.Y, want)
		}
	}
}

// FuzzReadCSV feeds the decoder arbitrary text, target column names and
// category limits. It must never panic, and every frame it accepts must
// be well formed: Validate passes, there is one kind per feature, and
// every label lies in [0, Classes).
func FuzzReadCSV(f *testing.F) {
	for _, in := range []string{basicCSV, targetFirstCSV, headerlessCSV, numericTargetCSV, "", "a,b\n", "a,b\n1\n"} {
		f.Add(in, "", uint8(0))
	}
	f.Add(targetFirstCSV, "label", uint8(0))
	f.Add(targetFirstCSV, "nope", uint8(0))
	f.Add(basicCSV, "city", uint8(2))
	f.Fuzz(func(t *testing.T, in, target string, maxCategories uint8) {
		fr, err := ReadCSV(strings.NewReader(in), CSVOptions{TargetColumn: target, MaxCategories: int(maxCategories)})
		if err != nil {
			return
		}
		if err := fr.Validate(); err != nil {
			t.Fatalf("accepted frame is invalid: %v", err)
		}
		if len(fr.Kinds) != fr.Features() {
			t.Fatalf("%d kinds for %d features", len(fr.Kinds), fr.Features())
		}
		for i, y := range fr.Y {
			if y < 0 || y >= fr.Classes {
				t.Fatalf("label %d of row %d outside [0,%d)", y, i, fr.Classes)
			}
		}
	})
}

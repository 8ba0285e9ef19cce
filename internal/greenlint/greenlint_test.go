package greenlint

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// lintFixture loads one testdata package and returns its findings plus
// the parsed packages (for expectation extraction).
func lintFixture(t *testing.T, name string) ([]Finding, []*Package, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := Load(fset, []string{filepath.Join("testdata", name)})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s loaded no packages", name)
	}
	var findings []Finding
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture %s: type error: %v", name, terr)
		}
		findings = append(findings, LintPackage(fset, pkg)...)
	}
	SortFindings(findings)
	return findings, pkgs, fset
}

// expectation is one `// want "regexp"` comment, keyed by file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
}

// collectWants extracts every `// want "..."` expectation from the
// fixture's comments. Several quoted patterns after one `// want`
// expect that many findings on the line, in column order.
func collectWants(t *testing.T, pkgs []*Package, fset *token.FileSet) []expectation {
	t.Helper()
	var wants []expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					pos := fset.Position(c.Pos())
					rest := strings.TrimSpace(c.Text[idx+len("// want "):])
					for rest != "" {
						q, err := strconv.QuotedPrefix(rest)
						if err != nil {
							t.Fatalf("%s:%d: malformed want pattern %q: %v", pos.Filename, pos.Line, rest, err)
						}
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: unquoting %q: %v", pos.Filename, pos.Line, q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: compiling want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						}
						wants = append(wants, expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
						rest = strings.TrimSpace(rest[len(q):])
					}
				}
			}
		}
	}
	return wants
}

// checkFixture asserts findings and expectations match exactly: every
// want matched by the finding at its line (in column order), no
// unmatched findings, no unmatched wants.
func checkFixture(t *testing.T, name string) []Finding {
	t.Helper()
	findings, pkgs, fset := lintFixture(t, name)
	wants := collectWants(t, pkgs, fset)

	type lineKey struct {
		file string
		line int
	}
	wantsAt := make(map[lineKey][]expectation)
	for _, w := range wants {
		wantsAt[lineKey{w.file, w.line}] = append(wantsAt[lineKey{w.file, w.line}], w)
	}
	foundAt := make(map[lineKey][]Finding)
	for _, f := range findings {
		foundAt[lineKey{f.Pos.Filename, f.Pos.Line}] = append(foundAt[lineKey{f.Pos.Filename, f.Pos.Line}], f)
	}

	for key, ws := range wantsAt {
		fs := foundAt[key]
		if len(fs) != len(ws) {
			t.Errorf("%s:%d: %d finding(s), want %d", key.file, key.line, len(fs), len(ws))
			continue
		}
		for i, w := range ws {
			if !w.re.MatchString(fs[i].Tag()) {
				t.Errorf("%s:%d: finding %q does not match want %q", key.file, key.line, fs[i].Tag(), w.raw)
			}
		}
	}
	for key, fs := range foundAt {
		if _, ok := wantsAt[key]; !ok {
			for _, f := range fs {
				t.Errorf("%s:%d: unexpected finding %q", key.file, key.line, f.Tag())
			}
		}
	}
	return findings
}

func TestWallclockFixture(t *testing.T) {
	findings := checkFixture(t, "wallclock")
	if len(findings) == 0 {
		t.Fatal("wallclock fixture produced no findings; the CI gate would pass vacuously")
	}
}

func TestGlobalRandFixture(t *testing.T) {
	findings := checkFixture(t, "globalrand")
	if len(findings) == 0 {
		t.Fatal("globalrand fixture produced no findings; the CI gate would pass vacuously")
	}
}

func TestMapOrderFixture(t *testing.T) {
	findings := checkFixture(t, "maporder")
	if len(findings) == 0 {
		t.Fatal("maporder fixture produced no findings; the CI gate would pass vacuously")
	}
}

func TestWrapErrFixture(t *testing.T) {
	findings := checkFixture(t, "wraperr")
	if len(findings) == 0 {
		t.Fatal("wraperr fixture produced no findings; the CI gate would pass vacuously")
	}
}

func TestRowMajorFixture(t *testing.T) {
	findings := checkFixture(t, filepath.Join("rowmajor", "ml"))
	if len(findings) == 0 {
		t.Fatal("rowmajor fixture produced no findings; the CI gate would pass vacuously")
	}
}

// TestRowMajorScopedToML pins the path scoping: the identical code
// outside a /ml package must produce no findings, so the check cannot
// leak into packages that legitimately traffic in row-major data
// (stacked meta-features, export tables).
func TestRowMajorScopedToML(t *testing.T) {
	findings, _, _ := lintFixture(t, filepath.Join("rowmajor", "elsewhere"))
	for _, f := range findings {
		if f.Check == "rowmajor" {
			t.Errorf("rowmajor fired outside internal/ml: %s", f)
		}
	}
}

func TestReduceOrderFixture(t *testing.T) {
	findings := checkFixture(t, filepath.Join("reduceorder", "ml"))
	if len(findings) == 0 {
		t.Fatal("reduceorder fixture produced no findings; the CI gate would pass vacuously")
	}
}

// TestReduceOrderScopedToML pins the path scoping: goroutines with
// mutex-guarded accumulators outside /ml packages (the bench
// scheduler's idiom) must produce no findings.
func TestReduceOrderScopedToML(t *testing.T) {
	findings, _, _ := lintFixture(t, filepath.Join("reduceorder", "elsewhere"))
	for _, f := range findings {
		if f.Check == "reduceorder" {
			t.Errorf("reduceorder fired outside internal/ml: %s", f)
		}
	}
}

func TestMeteredCostFixture(t *testing.T) {
	findings := checkFixture(t, "meteredcost")
	if len(findings) == 0 {
		t.Fatal("meteredcost fixture produced no findings; the CI gate would pass vacuously")
	}
}

// TestMeteredCostServeFixture covers the serving-shaped resolve paths:
// refusal outcomes (shed, expired, degraded) that return early must not
// drop the predict batch's ml.Cost — an expired or degraded request
// still consumed its compute, and the serve ledger's conservation
// invariant depends on every path charging.
func TestMeteredCostServeFixture(t *testing.T) {
	findings := checkFixture(t, filepath.Join("meteredcost", "serve"))
	if len(findings) == 0 {
		t.Fatal("meteredcost serve fixture produced no findings; the CI gate would pass vacuously")
	}
}

// TestMeteredCostRepoFixture covers the evaluation-repository-shaped
// paths: simulated-ensemble analyses load cached predictions, and
// "cached" tempts callers into dropping the lookup and blend ml.Cost.
// The simulation's claim — tiny but measured energy — collapses if any
// path skips metering, so the check must catch repo-shaped drops.
func TestMeteredCostRepoFixture(t *testing.T) {
	findings := checkFixture(t, filepath.Join("meteredcost", "repo"))
	if len(findings) == 0 {
		t.Fatal("meteredcost repo fixture produced no findings; the CI gate would pass vacuously")
	}
}

func TestHotAllocFixture(t *testing.T) {
	findings := checkFixture(t, "hotalloc")
	if len(findings) == 0 {
		t.Fatal("hotalloc fixture produced no findings; the CI gate would pass vacuously")
	}
}

func TestUnusedAllowFixture(t *testing.T) {
	findings := checkFixture(t, "unusedallow")
	if len(findings) == 0 {
		t.Fatal("unusedallow fixture produced no findings; the CI gate would pass vacuously")
	}
}

// TestDirectivesFixture covers the suppression machinery: allow
// directives on the same line and the line above suppress, directives
// for another check or further away do not, and malformed directives
// (unknown check, missing reason, unknown verb) are findings in their
// own right.
func TestDirectivesFixture(t *testing.T) {
	findings := checkFixture(t, "directives")
	var directiveErrs int
	for _, f := range findings {
		if f.Check == DirectiveCheck {
			directiveErrs++
		}
	}
	if directiveErrs != 4 {
		t.Errorf("directives fixture produced %d [directive] findings, want 4 (unknown check, missing reason, unknown verb, retired owns verb)", directiveErrs)
	}
}

// TestWildcardStopsAtNestedModule pins the go tool's wildcard scope: a
// directory below the wildcard root that holds its own go.mod is another
// module, so "./..." must not lint it (go vet ./... and go list ./...
// skip it too).
func TestWildcardStopsAtNestedModule(t *testing.T) {
	root := filepath.Join("testdata", "nestedmod")
	got, err := expandPatterns([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{root, filepath.Join(root, "sub")}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("expandPatterns(%s/...) = %v, want %v", root, got, want)
	}
	// Rooting the wildcard inside the nested module still covers it.
	inner := filepath.Join(root, "inner")
	got, err = expandPatterns([]string{inner + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != inner {
		t.Fatalf("expandPatterns(%s/...) = %v, want [%s]", inner, got, inner)
	}
}

// TestFindingFormat pins the output contract the CI job and editors
// parse: file:line: [check] message.
func TestFindingFormat(t *testing.T) {
	f := Finding{Check: "wallclock", Msg: "call to time.Now"}
	f.Pos.Filename = "internal/bench/export.go"
	f.Pos.Line = 42
	if got, want := f.String(), "internal/bench/export.go:42: [wallclock] call to time.Now"; got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}

// TestVerbParsing pins the fmt-format scanner wraperr depends on.
func TestVerbParsing(t *testing.T) {
	cases := []struct {
		format string
		want   []verbUse
	}{
		{"plain", nil},
		{"%v", []verbUse{{'v', 1}}},
		{"%d then %s", []verbUse{{'d', 1}, {'s', 2}}},
		{"100%% done %w", []verbUse{{'w', 1}}},
		{"%*d %v", []verbUse{{'d', 2}, {'v', 3}}},
		{"%-8.3f %+q", []verbUse{{'f', 1}, {'q', 2}}},
		{"%[2]v %[1]s", []verbUse{{'v', 2}, {'s', 1}}},
	}
	for _, c := range cases {
		got := parseVerbs(c.format)
		if len(got) != len(c.want) {
			t.Errorf("parseVerbs(%q) = %v, want %v", c.format, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseVerbs(%q)[%d] = %v, want %v", c.format, i, got[i], c.want[i])
			}
		}
	}
}

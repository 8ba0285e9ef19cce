// Package greenlint is the project's determinism and energy-accounting
// static-analysis suite. The benchmark harness promises byte-identical
// records, exports, and figures at any worker count, and bit-identical
// virtual-clock energy across refactors; that guarantee dies by a
// thousand nondeterminism cuts — a stray wall-clock read, a global RNG
// draw, an unsorted map iteration feeding an export. greenlint rejects
// those cuts at review time instead of waiting for a regression test to
// notice the bytes changed.
//
// Nine analyzers run over every package:
//
//   - wallclock: no time.Now/time.Since/time.Sleep — measured code must
//     go through internal/vclock and internal/energy.
//   - globalrand: in internal/... no math/rand (v1) and no source-less
//     math/rand/v2 top-level functions — every RNG stream must be
//     explicitly seeded, because determinism derives from cell identity.
//   - maporder: no range over a map that emits in iteration order
//     (writes to an io.Writer, or builds a slice that is never sorted).
//   - wraperr: no fmt.Errorf that passes an error through %v/%s — use
//     %w so the errors.Is-based failure taxonomy keeps working.
//   - rowmajor: in internal/ml no unannotated [][]float64 allocation or
//     literal — the kernels are columnar; a row-major feature matrix is
//     the per-fit transpose regression coming back.
//   - reduceorder: in internal/ml no unannotated goroutine launch and no
//     write to a captured variable from inside one — shared accumulators
//     make float reduction order (and the output bits) depend on
//     scheduling; the sanctioned pattern is item-addressed slots reduced
//     on the caller in slot order.
//   - meteredcost: energy-accounting completeness — an ml.Cost returned
//     by fit/predict compute must be charged, accumulated, or returned
//     on every path; no compute path is free.
//   - hotalloc: functions annotated //greenlint:hotpath, and their
//     package-local callees, must not contain allocation-bearing
//     constructs (make/new, slice/map literals, append, capturing
//     closures, interface boxing).
//   - unusedallow: //greenlint:allow directives that suppress nothing
//     are themselves findings, so annotation debt cannot rot in place.
//
// Legitimate exceptions are annotated in the source, never silently
// exempted:
//
//	//greenlint:allow <check> <reason>
//
// A directive suppresses findings for <check> on its own line and on
// the line immediately below it (so it can sit on the offending line or
// on its own line just above). The reason is mandatory, and a directive
// naming an unknown check is itself a finding — a typo must not turn
// into a silent exemption. One further verb attaches to function
// declarations (doc comment or the line directly above `func`) and is a
// grant rather than a suppression:
//
//	//greenlint:hotpath <reason>  — must stay allocation-free
package greenlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer hit, rendered as "file:line: [check] message".
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Msg)
}

// Tag renders the check-qualified message without the position — the
// form golden-test expectations match against.
func (f Finding) Tag() string {
	return fmt.Sprintf("[%s] %s", f.Check, f.Msg)
}

// An Analyzer is one named check over a loaded, type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers is the full suite, in the order findings are attributed.
var Analyzers = []*Analyzer{Wallclock, GlobalRand, MapOrder, WrapErr, RowMajor, ReduceOrder, MeteredCost, HotAlloc, UnusedAllow}

// UnusedAllow reports //greenlint:allow directives that suppress no
// finding. It has no Run of its own: usedness falls out of the
// suppression bookkeeping in lintPackage, after every enabled analyzer
// has reported. An allow is audited only when its check actually ran
// (under -checks filtering a skipped check's allows are unjudgeable),
// and `allow unusedallow` directives are exempt — a directive cannot
// meaningfully vouch for itself.
var UnusedAllow = &Analyzer{
	Name: "unusedallow",
	Doc:  "//greenlint:allow directives must suppress at least one finding; stale ones are annotation debt and get deleted",
	Run:  func(*Pass) {},
}

// DirectiveCheck is the pseudo-check name under which malformed
// //greenlint: directives are reported.
const DirectiveCheck = "directive"

func knownCheck(name string) bool {
	for _, a := range Analyzers {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Pass carries one package through one analyzer.
type Pass struct {
	Fset    *token.FileSet
	Pkg     *Package
	current *Analyzer
	report  func(Finding)
}

// Reportf records a finding for the running analyzer at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:   p.Fset.Position(pos),
		Check: p.current.Name,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// pkgPathOf resolves expr to an imported package path when expr is the
// package-name operand of a selector (e.g. the `time` in time.Now), or
// "" otherwise. It goes through go/types so import aliases are handled.
func (p *Pass) pkgPathOf(expr ast.Expr) string {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// typeOf is Info.TypeOf, tolerating expressions the checker never saw.
func (p *Pass) typeOf(expr ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(expr)
}

// directive is one parsed //greenlint: comment.
type directive struct {
	pos    token.Position
	verb   string // allow or hotpath
	check  string // allow only; hotpath takes no check name
	reason string
}

// parseDirectives extracts every //greenlint: comment in the package.
// Golden-test fixtures put `// want "..."` expectations on directive
// lines too, so anything from "// want" onward is not part of the
// reason.
func parseDirectives(fset *token.FileSet, files []*ast.File) []directive {
	var out []directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//greenlint:")
				if !ok {
					continue
				}
				if i := strings.Index(text, "// want"); i >= 0 {
					text = text[:i]
				}
				fields := strings.Fields(text)
				d := directive{pos: fset.Position(c.Pos())}
				if len(fields) > 0 {
					d.verb = fields[0]
				}
				if d.verb == "hotpath" {
					// Function-level grant: everything after the verb
					// is the reason; there is no check operand.
					if len(fields) > 1 {
						d.reason = strings.Join(fields[1:], " ")
					}
				} else {
					if len(fields) > 1 {
						d.check = fields[1]
					}
					if len(fields) > 2 {
						d.reason = strings.Join(fields[2:], " ")
					}
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// validateDirectives turns malformed directives into findings: an
// unknown verb, an unknown check name, a missing reason, or a hotpath
// grant that attaches to no function declaration must fail the build
// rather than silently suppress (or grant) nothing — or the wrong thing.
// dangling holds the positions of hotpath directives hotpathRoots could
// not attach.
func validateDirectives(dirs []directive, dangling map[token.Position]bool) []Finding {
	var out []Finding
	for _, d := range dirs {
		switch d.verb {
		case "allow":
			switch {
			case !knownCheck(d.check):
				out = append(out, Finding{Pos: d.pos, Check: DirectiveCheck,
					Msg: fmt.Sprintf("unknown check %q in //greenlint:allow (known checks: %s)", d.check, strings.Join(checkNames(), ", "))})
			case d.reason == "":
				out = append(out, Finding{Pos: d.pos, Check: DirectiveCheck,
					Msg: fmt.Sprintf("//greenlint:allow %s needs a reason — say why this site is exempt", d.check)})
			}
		case "hotpath":
			switch {
			case d.reason == "":
				out = append(out, Finding{Pos: d.pos, Check: DirectiveCheck,
					Msg: "//greenlint:hotpath needs a reason — say why this function holds the contract"})
			case dangling[d.pos]:
				out = append(out, Finding{Pos: d.pos, Check: DirectiveCheck,
					Msg: "//greenlint:hotpath attaches to no function declaration; put it in the doc comment or on the line directly above func"})
			}
		default:
			out = append(out, Finding{Pos: d.pos, Check: DirectiveCheck,
				Msg: fmt.Sprintf("unknown greenlint directive %q (supported: allow <check> <reason>, hotpath <reason>)", d.verb)})
		}
	}
	return out
}

func checkNames() []string {
	names := make([]string, len(Analyzers))
	for i, a := range Analyzers {
		names[i] = a.Name
	}
	return names
}

// suppressorOf returns the index of the well-formed allow directive
// covering the finding — same file, matching check, on the finding's
// line or the line directly above it — or -1. A same-line directive
// wins over a line-above one, so that stacked annotations on adjacent
// lines each get credited with their own finding (the unusedallow audit
// counts credits; first-match-in-window would starve the second
// directive of a pair and flag it as stale).
func suppressorOf(f Finding, dirs []directive) int {
	lineAbove := -1
	for i, d := range dirs {
		if d.verb != "allow" || d.check != f.Check || d.reason == "" {
			continue
		}
		if d.pos.Filename != f.Pos.Filename {
			continue
		}
		if d.pos.Line == f.Pos.Line {
			return i
		}
		if d.pos.Line+1 == f.Pos.Line && lineAbove < 0 {
			lineAbove = i
		}
	}
	return lineAbove
}

// LintPackage runs the whole suite over one loaded package and returns
// the surviving findings (directive errors included, suppressions
// applied).
func LintPackage(fset *token.FileSet, pkg *Package) []Finding {
	return lintPackage(fset, pkg, nil)
}

// lintPackage runs the enabled subset of the suite (nil = all checks)
// and applies the directive machinery: suppression, directive
// validation, and the unusedallow audit over the suppression ledger.
func lintPackage(fset *token.FileSet, pkg *Package, enabled map[string]bool) []Finding {
	on := func(name string) bool { return enabled == nil || enabled[name] }
	var raw []Finding
	pass := &Pass{Fset: fset, Pkg: pkg, report: func(f Finding) { raw = append(raw, f) }}
	for _, a := range Analyzers {
		if !on(a.Name) {
			continue
		}
		pass.current = a
		a.Run(pass)
	}
	dirs := parseDirectives(fset, pkg.Files)
	used := make([]bool, len(dirs))
	var out []Finding
	for _, f := range raw {
		if i := suppressorOf(f, dirs); i >= 0 {
			used[i] = true
			continue
		}
		out = append(out, f)
	}
	if on(UnusedAllow.Name) {
		for i, d := range dirs {
			if d.verb != "allow" || used[i] {
				continue
			}
			if !knownCheck(d.check) || d.reason == "" {
				continue // malformed: already a directive finding
			}
			if d.check == UnusedAllow.Name || !on(d.check) {
				continue // self-referential or unjudged under -checks
			}
			f := Finding{Pos: d.pos, Check: UnusedAllow.Name,
				Msg: fmt.Sprintf("//greenlint:allow %s suppresses nothing here; delete the stale directive (or fix the drift that orphaned it)", d.check)}
			if suppressorOf(f, dirs) < 0 {
				out = append(out, f)
			}
		}
	}
	_, danglingDirs := hotpathRoots(pass)
	dangling := make(map[token.Position]bool, len(danglingDirs))
	for _, d := range danglingDirs {
		dangling[d.pos] = true
	}
	out = append(out, validateDirectives(dirs, dangling)...)
	return out
}

// Run loads every package matched by patterns (./...-style wildcards or
// plain directories) and lints them all. Findings come back sorted by
// position; loadWarnings carries non-fatal type-check notes.
func Run(patterns []string) (findings []Finding, loadWarnings []string, err error) {
	return RunChecks(patterns, nil)
}

// RunChecks is Run restricted to the named checks (nil or empty =
// everything). Unknown names error out loudly — a typoed -checks filter
// must not silently lint nothing.
func RunChecks(patterns []string, checks []string) (findings []Finding, loadWarnings []string, err error) {
	var enabled map[string]bool
	if len(checks) > 0 {
		enabled = make(map[string]bool, len(checks))
		for _, c := range checks {
			if !knownCheck(c) {
				return nil, nil, fmt.Errorf("unknown check %q (known checks: %s)", c, strings.Join(checkNames(), ", "))
			}
			enabled[c] = true
		}
	}
	fset := token.NewFileSet()
	pkgs, err := Load(fset, patterns)
	if err != nil {
		return nil, nil, err
	}
	for _, pkg := range pkgs {
		findings = append(findings, lintPackage(fset, pkg, enabled)...)
		for _, terr := range pkg.TypeErrors {
			loadWarnings = append(loadWarnings, fmt.Sprintf("%s: type-check: %v", pkg.Path, terr))
		}
	}
	SortFindings(findings)
	return findings, loadWarnings, nil
}

// SortFindings orders findings by file, line, column, then check, so
// output is stable — the linter holds itself to the invariant it
// enforces.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}

package greenlint

// Engine tests for the CFG builder, independent of any analyzer. The
// assertions are structural — which blocks exist, which edges connect
// them, what is reachable — rather than golden String() dumps, so the
// builder can renumber blocks without breaking the suite. The early-
// return and defer cases are the load-bearing ones: meteredcost's
// unmetered-path guarantee is exactly "the obligation survives to Exit
// along the early-return edge".

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildCFGFromSrc parses `body` as the body of a function and builds
// its CFG.
func buildCFGFromSrc(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\n\nfunc f(c bool, n int, xs []int, ch chan int) (int, error) {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", src, 0)
	if err != nil {
		t.Fatalf("parsing fixture body: %v\nbody:\n%s", err, body)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	return BuildCFG(fd.Body, nil)
}

// blocksOfKind returns every block whose Kind matches.
func blocksOfKind(c *CFG, kind string) []*Block {
	var out []*Block
	for _, b := range c.Blocks {
		if b.Kind == kind {
			out = append(out, b)
		}
	}
	return out
}

// oneBlock returns the single block of the given kind, failing loudly
// on zero or several.
func oneBlock(t *testing.T, c *CFG, kind string) *Block {
	t.Helper()
	bs := blocksOfKind(c, kind)
	if len(bs) != 1 {
		t.Fatalf("want exactly one %q block, got %d\n%s", kind, len(bs), c)
	}
	return bs[0]
}

func hasEdge(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

// reachable reports whether `to` is reachable from `from` over edges.
func reachable(from, to *Block) bool {
	seen := map[*Block]bool{}
	var dfs func(*Block) bool
	dfs = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}

// nodeTexts renders a block's nodes for containment assertions.
func nodeTexts(b *Block) string {
	var sb strings.Builder
	for _, n := range b.Nodes {
		sb.WriteString(nodeText(n))
		sb.WriteString(";")
	}
	return sb.String()
}

func nodeText(n ast.Node) string {
	cfg := &CFG{Blocks: []*Block{{Nodes: []ast.Node{n}}}}
	s := cfg.String()
	if i := strings.Index(s, "{"); i >= 0 {
		if j := strings.LastIndex(s, "}"); j > i {
			return s[i+1 : j]
		}
	}
	return s
}

func TestCFGIfElseJoins(t *testing.T) {
	c := buildCFGFromSrc(t, `
		x := 0
		if c {
			x = 1
		} else {
			x = 2
		}
		return x, nil
	`)
	then := oneBlock(t, c, "if.then")
	els := oneBlock(t, c, "if.else")
	done := oneBlock(t, c, "if.done")
	if !hasEdge(c.Entry, then) || !hasEdge(c.Entry, els) {
		t.Fatalf("condition block must branch to both arms\n%s", c)
	}
	if !hasEdge(then, done) || !hasEdge(els, done) {
		t.Fatalf("both arms must rejoin at if.done\n%s", c)
	}
	if !reachable(done, c.Exit) {
		t.Fatalf("if.done must reach Exit\n%s", c)
	}
}

// TestCFGEarlyReturnEdge pins the edge meteredcost's path check rides:
// the then-arm of an early return goes straight to Exit, bypassing the
// code after the if.
func TestCFGEarlyReturnEdge(t *testing.T) {
	c := buildCFGFromSrc(t, `
		if c {
			return 0, nil
		}
		n = 1
		return n, nil
	`)
	then := oneBlock(t, c, "if.then")
	done := oneBlock(t, c, "if.done")
	if !hasEdge(then, c.Exit) {
		t.Fatalf("early return must edge directly to Exit\n%s", c)
	}
	if hasEdge(then, done) || reachable(then, done) {
		t.Fatalf("the early-return arm must not fall through to the code after the if\n%s", c)
	}
	if !strings.Contains(nodeTexts(done), "n = 1") {
		t.Fatalf("statements after the if belong to if.done, got %q\n%s", nodeTexts(done), c)
	}
}

func TestCFGForLoop(t *testing.T) {
	c := buildCFGFromSrc(t, `
		s := 0
		for i := 0; i < n; i++ {
			s += i
		}
		return s, nil
	`)
	head := oneBlock(t, c, "for.head")
	body := oneBlock(t, c, "for.body")
	post := oneBlock(t, c, "for.post")
	done := oneBlock(t, c, "for.done")
	if !hasEdge(head, body) || !hasEdge(head, done) {
		t.Fatalf("loop head must branch to body and done\n%s", c)
	}
	if !hasEdge(body, post) || !hasEdge(post, head) {
		t.Fatalf("back edge must run body -> post -> head\n%s", c)
	}
	if !reachable(done, c.Exit) {
		t.Fatalf("for.done must reach Exit\n%s", c)
	}
}

func TestCFGRangeLoop(t *testing.T) {
	c := buildCFGFromSrc(t, `
		s := 0
		for _, x := range xs {
			s += x
		}
		return s, nil
	`)
	head := oneBlock(t, c, "range.head")
	body := oneBlock(t, c, "range.body")
	done := oneBlock(t, c, "range.done")
	if !hasEdge(head, body) || !hasEdge(head, done) {
		t.Fatalf("range head must branch to body and done\n%s", c)
	}
	if !hasEdge(body, head) {
		t.Fatalf("range body must edge back to head\n%s", c)
	}
	if !strings.Contains(nodeTexts(head), "xs") {
		t.Fatalf("the ranged operand must be evaluated in the head, got %q", nodeTexts(head))
	}
}

func TestCFGSwitchFallthroughAndDefault(t *testing.T) {
	c := buildCFGFromSrc(t, `
		switch n {
		case 0:
			n = 1
			fallthrough
		case 1:
			n = 2
		}
		return n, nil
	`)
	cases := blocksOfKind(c, "switch.case")
	if len(cases) != 2 {
		t.Fatalf("want 2 case blocks, got %d\n%s", len(cases), c)
	}
	done := oneBlock(t, c, "switch.done")
	if !hasEdge(cases[0], cases[1]) {
		t.Fatalf("fallthrough must edge case 0 -> case 1\n%s", c)
	}
	if !hasEdge(c.Entry, done) {
		t.Fatalf("a switch without default must edge head -> done for the no-match path\n%s", c)
	}

	// With a default clause the no-match edge disappears.
	c2 := buildCFGFromSrc(t, `
		switch n {
		case 0:
			n = 1
		default:
			n = 2
		}
		return n, nil
	`)
	done2 := oneBlock(t, c2, "switch.done")
	if hasEdge(c2.Entry, done2) {
		t.Fatalf("a switch with default covers every path; head must not edge to done\n%s", c2)
	}
}

// TestCFGDeferStaysInStream pins the defer contract: the DeferStmt is
// an ordinary node on the path where it executes (so an analyzer that
// models defer sees it only on the paths that ran it), not an edge.
func TestCFGDeferStaysInStream(t *testing.T) {
	c := buildCFGFromSrc(t, `
		defer func() {}()
		if c {
			return 0, nil
		}
		return 1, nil
	`)
	foundDefer := false
	for _, n := range c.Entry.Nodes {
		if _, ok := n.(*ast.DeferStmt); ok {
			foundDefer = true
		}
	}
	if !foundDefer {
		t.Fatalf("the DeferStmt must appear as a node in the entry block\n%s", c)
	}
	then := oneBlock(t, c, "if.then")
	if !hasEdge(then, c.Exit) {
		t.Fatalf("the early return after the defer must still edge to Exit\n%s", c)
	}
}

// TestCFGPanicEdge pins the panic/ordinary-exit separation meteredcost
// relies on: panic paths reach PanicExit, never Exit.
func TestCFGPanicEdge(t *testing.T) {
	c := buildCFGFromSrc(t, `
		if c {
			panic("boom")
		}
		return 0, nil
	`)
	then := oneBlock(t, c, "if.then")
	if !hasEdge(then, c.PanicExit) {
		t.Fatalf("panic must edge to PanicExit\n%s", c)
	}
	if reachable(then, c.Exit) {
		t.Fatalf("the panicking arm must not reach the ordinary Exit\n%s", c)
	}
	if !reachable(c.Entry, c.Exit) {
		t.Fatalf("the non-panicking path must still reach Exit\n%s", c)
	}
}

// TestCFGRecoverBody pins that a recover-bearing deferred literal is
// opaque: its body is not inlined into the enclosing graph.
func TestCFGRecoverBody(t *testing.T) {
	c := buildCFGFromSrc(t, `
		defer func() {
			if r := recover(); r != nil {
				n = 0
			}
		}()
		panic("boom")
	`)
	// The literal's if must not contribute if.then/if.done blocks to the
	// outer graph.
	if got := len(blocksOfKind(c, "if.then")); got != 0 {
		t.Fatalf("function-literal bodies must stay opaque, found %d inlined if.then blocks\n%s", got, c)
	}
	if !hasEdge(c.Entry, c.PanicExit) {
		t.Fatalf("the unconditional panic must edge entry -> PanicExit\n%s", c)
	}
	if reachable(c.Entry, c.Exit) {
		t.Fatalf("nothing after an unconditional panic reaches Exit\n%s", c)
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	c := buildCFGFromSrc(t, `
	outer:
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if c {
					break outer
				}
			}
		}
		return 0, nil
	`)
	fors := blocksOfKind(c, "for.done")
	if len(fors) != 2 {
		t.Fatalf("want 2 for.done blocks, got %d\n%s", len(fors), c)
	}
	// The outer loop's done block is created before the inner one.
	outerDone, innerDone := fors[0], fors[1]
	if outerDone.Index > innerDone.Index {
		outerDone, innerDone = innerDone, outerDone
	}
	thens := blocksOfKind(c, "if.then")
	if len(thens) != 1 {
		t.Fatalf("want 1 if.then block, got %d\n%s", len(thens), c)
	}
	if !hasEdge(thens[0], outerDone) {
		t.Fatalf("break outer must edge to the outer loop's done block\n%s", c)
	}
	if hasEdge(thens[0], innerDone) {
		t.Fatalf("break outer must bypass the inner loop's done block\n%s", c)
	}
}

func TestCFGGotoForward(t *testing.T) {
	c := buildCFGFromSrc(t, `
		if c {
			goto out
		}
		n = 1
	out:
		return n, nil
	`)
	label := oneBlock(t, c, "label.out")
	then := oneBlock(t, c, "if.then")
	if !hasEdge(then, label) {
		t.Fatalf("goto must edge to the labeled block\n%s", c)
	}
	done := oneBlock(t, c, "if.done")
	if !hasEdge(done, label) {
		t.Fatalf("fallthrough into the label must also edge there\n%s", c)
	}
	if !reachable(label, c.Exit) {
		t.Fatalf("the labeled return must reach Exit\n%s", c)
	}
}

package greenlint

// Intraprocedural control-flow graphs over go/ast.
//
// The syntactic analyzers (wallclock, rowmajor, ...) ask "does this
// expression appear anywhere?". The accounting analyzer (meteredcost)
// asks a strictly harder question: "does this obligation get discharged
// on EVERY path?" — including the early error return, the loop that
// breaks out, and the defer that only runs if its statement executed. That needs basic blocks and edges, not an
// ast.Inspect.
//
// The builder decomposes one function body into blocks of atomic nodes
// (simple statements and the condition/tag expressions of the control
// statements they came from) in evaluation order. Control structure
// becomes edges:
//
//   - if/else: condition block branches to then/else, re-joining at a
//     done block;
//   - for/range: a head block with a back edge from the body (via the
//     post statement), an exit edge to done, and break/continue edges —
//     labeled or not — resolved through a scope stack;
//   - switch/type switch/select: the head branches to every case;
//     fallthrough edges chain cases; a missing default adds a direct
//     head→done edge;
//   - return: edge to the shared Exit block;
//   - panic(...): edge to the shared PanicExit block, kept separate so
//     obligation checks can demand discharge on ordinary returns without
//     claiming anything about a dying process (defers still run there —
//     analyzers that model defer see the DeferStmt node on the path);
//   - goto: edge to the labeled statement's block.
//
// defer and go statements stay in the node stream as whole DeferStmt /
// GoStmt nodes; what deferred execution *means* is analyzer policy, not
// graph structure.
//
// Function literals are opaque at this level: their bodies are NOT
// inlined into the enclosing graph (they execute at some other time, or
// never). Analyzers build a separate CFG per literal and treat captures
// conservatively. Range statements contribute their operand expression
// to the head block; the per-iteration key/value rebinding is invisible,
// which is sound for the obligation analysis because an obligation is
// never introduced by a range binding.

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// Block is one basic block: a maximal straight-line run of atomic nodes
// with edges only at the end.
type Block struct {
	// Index is the creation order, stable for tests and debug output.
	Index int
	// Kind names why the block exists ("entry", "for.head", "if.then",
	// "exit", "panic", ...) — documentation and test hooks, never
	// semantics.
	Kind string
	// Nodes holds the block's atomic statements and expressions in
	// evaluation order.
	Nodes []ast.Node
	// Succs are the control-flow successors.
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks lists every block in creation order. Blocks[0] is Entry.
	Blocks []*Block
	// Entry is where execution starts.
	Entry *Block
	// Exit is the single ordinary exit: every return statement and the
	// fall-off-the-end path lead here.
	Exit *Block
	// PanicExit collects panic(...) paths, kept apart from Exit so
	// analyzers can apply different exit obligations.
	PanicExit *Block
}

// loopScope resolves break/continue targets, including labeled ones.
type loopScope struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select scopes (break-only)
}

type cfgBuilder struct {
	cfg *CFG
	// cur is the block under construction; nil after a terminator
	// (return/branch/panic) until the next statement starts a fresh,
	// unreachable block.
	cur *Block
	// scopes is the break/continue resolution stack, innermost last.
	scopes []loopScope
	// pendingLabel names the label of the labeled statement being
	// built, so `outer: for ...` registers its scopes under "outer".
	pendingLabel string
	// labelBlocks maps goto/label names to their blocks, created on
	// first reference so forward gotos resolve.
	labelBlocks map[string]*Block
	// fallthroughTo is the next case block while building switch cases.
	fallthroughTo *Block
	// isPanic classifies calls that never return normally.
	isPanic func(*ast.CallExpr) bool
}

// BuildCFG constructs the control-flow graph of one function body.
// isPanic, when non-nil, classifies calls that never return normally
// (panic and friends); nil uses the default, which recognizes the
// builtin panic by name.
func BuildCFG(body *ast.BlockStmt, isPanic func(*ast.CallExpr) bool) *CFG {
	if isPanic == nil {
		isPanic = defaultIsPanic
	}
	b := &cfgBuilder{
		cfg:         &CFG{},
		labelBlocks: map[string]*Block{},
		isPanic:     isPanic,
	}
	entry := b.newBlock("entry")
	b.cfg.Entry = entry
	b.cfg.Exit = b.newBlock("exit")
	b.cfg.PanicExit = b.newBlock("panic")
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(b.cfg.Exit) // fall off the end
	return b.cfg
}

// defaultIsPanic recognizes the builtin panic by bare name — precise
// enough unless someone shadows `panic`, which go vet already dislikes.
func defaultIsPanic(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// add appends an atomic node to the current block, opening a fresh
// unreachable block when the previous statement terminated control.
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// edge adds cur→to without ending the block.
func (b *cfgBuilder) edge(to *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, to)
	}
}

// jump ends the current block with a single edge to `to`.
func (b *cfgBuilder) jump(to *Block) {
	b.edge(to)
	b.cur = nil
}

// start switches construction to `to`.
func (b *cfgBuilder) start(to *Block) { b.cur = to }

// takeLabel consumes the pending label for the scope being opened.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findScope resolves a break/continue target. wantContinue restricts to
// loop scopes (switch/select scopes cannot be continued).
func (b *cfgBuilder) findScope(label string, wantContinue bool) *loopScope {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		s := &b.scopes[i]
		if wantContinue && s.continueTo == nil {
			continue
		}
		if label == "" || s.label == label {
			return s
		}
	}
	return nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		b.edge(then)
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(els)
			b.start(then)
			b.stmt(s.Body)
			b.jump(done)
			b.start(els)
			b.stmt(s.Else)
			b.jump(done)
		} else {
			b.jump(done)
			b.start(then)
			b.stmt(s.Body)
			b.jump(done)
		}
		b.start(done)

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		continueTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			continueTo = post
		}
		b.jump(head)
		b.start(head)
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(done)
		}
		b.jump(body)
		b.scopes = append(b.scopes, loopScope{label: label, breakTo: done, continueTo: continueTo})
		b.start(body)
		b.stmt(s.Body)
		b.scopes = b.scopes[:len(b.scopes)-1]
		if post != nil {
			b.jump(post)
			b.start(post)
			b.stmt(s.Post)
			b.jump(head)
		} else {
			b.jump(head)
		}
		b.start(done)

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.jump(head)
		b.start(head)
		b.add(s.X) // the ranged operand is evaluated; key/value rebinding is per-iteration detail
		b.edge(done)
		b.jump(body)
		b.scopes = append(b.scopes, loopScope{label: label, breakTo: done, continueTo: head})
		b.start(body)
		b.stmt(s.Body)
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.jump(head)
		b.start(done)

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchCases(label, s.Body, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign) // carries the x.(type) operand
		b.switchCases(label, s.Body, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		done := b.newBlock("select.done")
		head := b.cur
		b.scopes = append(b.scopes, loopScope{label: label, breakTo: done})
		for _, cc := range s.Body.List {
			comm, ok := cc.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock("select.case")
			if head != nil {
				head.Succs = append(head.Succs, blk)
			}
			b.start(blk)
			if comm.Comm != nil {
				b.stmt(comm.Comm)
			}
			b.stmtList(comm.Body)
			b.jump(done)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		// Every path runs through some case (select {} blocks forever,
		// leaving done unreachable — correctly dead).
		b.cur = nil
		b.start(done)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if sc := b.findScope(label, false); sc != nil {
				b.jump(sc.breakTo)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if sc := b.findScope(label, true); sc != nil {
				b.jump(sc.continueTo)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			b.jump(b.labelBlock(label))
		case token.FALLTHROUGH:
			if b.fallthroughTo != nil {
				b.jump(b.fallthroughTo)
			} else {
				b.cur = nil
			}
		}

	case *ast.LabeledStmt:
		name := s.Label.Name
		blk := b.labelBlock(name)
		b.jump(blk)
		b.start(blk)
		b.pendingLabel = name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.DeferStmt, *ast.GoStmt, *ast.AssignStmt, *ast.IncDecStmt,
		*ast.SendStmt, *ast.DeclStmt:
		b.add(s)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && b.isPanic(call) {
			b.jump(b.cfg.PanicExit)
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Unknown statement kinds flow through as opaque nodes.
		b.add(s)
	}
}

// switchCases builds the case blocks of a (type) switch. allowFall
// enables fallthrough chaining (expression switches only).
func (b *cfgBuilder) switchCases(label string, body *ast.BlockStmt, allowFall bool) {
	done := b.newBlock("switch.done")
	head := b.cur
	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, cc := range body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauses = append(clauses, clause)
		caseBlocks = append(caseBlocks, b.newBlock("switch.case"))
		if clause.List == nil {
			hasDefault = true
		}
	}
	if head != nil {
		for _, blk := range caseBlocks {
			head.Succs = append(head.Succs, blk)
		}
		if !hasDefault {
			head.Succs = append(head.Succs, done)
		}
	}
	b.scopes = append(b.scopes, loopScope{label: label, breakTo: done})
	for i, clause := range clauses {
		b.start(caseBlocks[i])
		for _, e := range clause.List {
			b.add(e)
		}
		if allowFall && i+1 < len(caseBlocks) {
			b.fallthroughTo = caseBlocks[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.stmtList(clause.Body)
		b.fallthroughTo = nil
		b.jump(done)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.start(done)
}

// labelBlock returns (creating on demand) the block a label names, so
// forward gotos resolve before the labeled statement is reached.
func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labelBlocks[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labelBlocks[name] = blk
	return blk
}

// Preds computes the predecessor lists of every block.
func (c *CFG) Preds() map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(c.Blocks))
	for _, blk := range c.Blocks {
		for _, s := range blk.Succs {
			preds[s] = append(preds[s], blk)
		}
	}
	return preds
}

// ReversePostorder returns the blocks in reverse postorder from Entry;
// blocks unreachable from Entry (dead code) follow in creation order.
// This is the canonical iteration order for the forward solver.
func (c *CFG) ReversePostorder() []*Block {
	seen := make(map[*Block]bool, len(c.Blocks))
	var post []*Block
	var dfs func(*Block)
	dfs = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			dfs(s)
		}
		post = append(post, b)
	}
	if c.Entry != nil {
		dfs(c.Entry)
	}
	out := make([]*Block, 0, len(c.Blocks))
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	for _, b := range c.Blocks {
		if !seen[b] {
			out = append(out, b)
		}
	}
	return out
}

// String renders the graph for tests and debugging: one line per block,
// in index order, with node source text and successor indices.
func (c *CFG) String() string {
	var sb strings.Builder
	fset := token.NewFileSet()
	for _, blk := range c.Blocks {
		fmt.Fprintf(&sb, "b%d %s:", blk.Index, blk.Kind)
		for _, n := range blk.Nodes {
			var nb strings.Builder
			printer.Fprint(&nb, fset, n)
			text := strings.Join(strings.Fields(nb.String()), " ")
			fmt.Fprintf(&sb, " {%s}", text)
		}
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

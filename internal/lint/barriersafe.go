package lint

import (
	"go/ast"
	"go/types"
)

// barriersafe: the cluster's bulk-synchronous contract, statically. Types
// annotated //qos:sharded hold per-cell state that the parallel advance
// phase owns shard-by-shard; the single-threaded barrier phase is the only
// place cross-shard reads and writes are legal. Functions that make up the
// barrier phase carry //qos:barrier.
//
// Any field or method selection rooted at a sharded-typed expression
// outside a barrier function is flagged. Closures never inherit the
// annotation — deliberately: the closure handed to workpool.Run *is* the
// parallel phase, and its each-job-touches-only-its-own-shard argument is
// exactly the kind of claim that belongs in a //lint:allow waiver where
// review can see it.
//
// A method of a sharded type owns its receiver: selections rooted at the
// receiver itself (outside closures) are one shard's own state and stay
// legal anywhere. Selecting the method is still a selection on a sharded
// value, so the call site must be barrier code or waived. This lets the
// parallel phase be a shard method plus one waived call, rather than a
// closure body waived line by line.
//
// The rule is opt-in per package: no //qos:sharded type, no work.

func checkBarrierSafe(p *pkg) {
	if len(p.ann.sharded) == 0 {
		return
	}
	p.eachFuncDecl(func(_ *ast.File, fd *ast.FuncDecl) {
		inBarrier := p.ann.barrier[fd]
		recv := p.shardedReceiver(fd)
		flow := newFuncFlow(p, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			typeName := p.namedLocalType(sel.X)
			if typeName == "" || !p.ann.sharded[typeName] {
				return true
			}
			switch {
			case inBarrier && !flow.inFuncLit(sel.Pos()):
				// Legal: barrier-phase code in the annotated function body.
			case recv != nil && p.isIdentOf(sel.X, recv) && !flow.inFuncLit(sel.Pos()):
				// Legal: a sharded type's method touching its own receiver.
			case flow.inFuncLit(sel.Pos()):
				p.report(RuleBarrierSafe, sel.Pos(),
					"sharded %s state touched inside a closure: closures do not inherit //qos:barrier (waive if each parallel job only touches its own shard)", typeName)
			default:
				p.report(RuleBarrierSafe, sel.Pos(),
					"sharded %s state touched outside a //qos:barrier function", typeName)
			}
			return true
		})
	})
}

// shardedReceiver returns the receiver object of a method declared on a
// sharded type (value or pointer receiver), or nil.
func (p *pkg) shardedReceiver(fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	name := fd.Recv.List[0].Names[0]
	obj := p.info.Defs[name]
	if obj == nil || !p.ann.sharded[p.namedLocalType(fd.Recv.List[0].Type)] {
		return nil
	}
	return obj
}

// isIdentOf reports whether e is a bare identifier referring to obj.
func (p *pkg) isIdentOf(e ast.Expr, obj types.Object) bool {
	id, ok := e.(*ast.Ident)
	return ok && p.objectOf(id) == obj
}

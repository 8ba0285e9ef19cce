package ml

import (
	"sync"
	"sync/atomic"
)

// Within-cell parallelism.
//
// The grid scheduler parallelizes across cells; this knob lets a single
// large fit use the cores the grid leaves idle (few cells, many cores).
// The determinism bar is absolute: proba outputs, Cost, and therefore
// every grid export are bit-identical at any parallelism level. The
// kernels earn that by construction, not by luck, under two rules —
// the sanctioned reduction orders (see DESIGN.md "Kernel execution"):
//
//  1. Disjoint slots: a goroutine writes only to slots addressed by the
//     work item it executes (a forest fit's trees[i] and costs[i]; a
//     predict block's own output rows and blockVisits[b]). No shared
//     accumulator is ever written from a goroutine.
//  2. Fixed reduction: cross-slot reduction (summing tree costs, summing
//     block visit counts) happens on the calling goroutine, in
//     slot-index order, after all workers finish.
//
// Work that consumes an RNG additionally pre-splits its stream: the
// parent stream is consumed sequentially up front (one seed pair per
// item, in item order), so each item owns an independent deterministic
// stream regardless of which worker runs it when. greenlint's
// reduceorder check enforces rule 1 mechanically: any goroutine launch
// in this package, and any write to a captured variable inside one,
// must carry an annotation arguing its case.
//
// The knob is Cost-neutral: kernels account FLOPs identically at every
// level, so the virtual clock and energy tracker never see it — which
// is why it is excluded from the bench config fingerprint, like
// Workers.

// maxParallelism bounds the knob defensively; beyond real core counts
// more goroutines only add scheduling overhead.
const maxParallelism = 256

var fitParallelism atomic.Int64

// SetParallelism sets the package-wide within-fit worker budget and
// returns the previous value (so schedulers can restore it). Values
// below 1 mean sequential execution.
func SetParallelism(n int) int {
	if n < 1 {
		n = 1
	}
	if n > maxParallelism {
		n = maxParallelism
	}
	prev := fitParallelism.Swap(int64(n))
	if prev < 1 {
		return 1
	}
	return int(prev)
}

// Parallelism reports the current within-fit worker budget (≥ 1).
func Parallelism() int {
	p := int(fitParallelism.Load())
	if p < 1 {
		return 1
	}
	return p
}

// kernelBlock is the row-block width of the parallel prediction loops
// (the fused tree walk, kNN queries). Block boundaries are a pure
// function of the row count — never of the parallelism level — so
// per-block partial sums always reduce in the same order.
const kernelBlock = 256

// runIndexed executes fn(worker, i) for every i in [0, n), on up to
// Parallelism() goroutines. fn must follow the disjoint-slot rule: it
// may write only to slots addressed by i (or to worker-local scratch
// addressed by the worker id, 0 ≤ worker < Parallelism()). Which worker
// runs which item is scheduling-dependent and must never matter.
// Panics inside fn are rethrown on the calling goroutine, so the
// harness's per-cell recovery (and the fault injector's panic faults)
// behave exactly as in sequential code.
func runIndexed(n int, fn func(worker, i int)) {
	p := Parallelism()
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicVal  any
		panicked  atomic.Bool
	)
	wg.Add(p)
	for w := 0; w < p; w++ {
		//greenlint:allow reduceorder the one sanctioned launch site: workers claim items from an atomic counter, write only item-addressed slots, and rethrow panics; reductions stay on the caller
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					//greenlint:allow reduceorder sync.Once admits exactly one writer; which panic wins is rethrown control flow, not output data
					panicOnce.Do(func() { panicVal = r })
					panicked.Store(true)
				}
			}()
			for !panicked.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// rowBlockCount reports how many kernelBlock-wide blocks runRowBlocks
// uses for n rows — for sizing block-indexed result slots.
func rowBlockCount(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + kernelBlock - 1) / kernelBlock
}

// blockRows reports the row range [lo, hi) of block b of an n-row grid.
func blockRows(b, n int) (lo, hi int) {
	lo = b * kernelBlock
	return lo, min(lo+kernelBlock, n)
}

// parallelBlocks reports whether runRowBlocks would spread n rows over
// more than one goroutine. When it would not, a kernel can loop over the
// blocks itself and skip building the closure runRowBlocks takes: fn
// escapes to the worker goroutines, so every closure handed to it, and
// every func value that closure captures, is heap-allocated even when
// runIndexed ends up running on the calling goroutine.
func parallelBlocks(n int) bool {
	return min(Parallelism(), rowBlockCount(n)) > 1
}

// runRowBlocks partitions [0, n) into kernelBlock-wide row blocks and
// executes fn(worker, block, lo, hi) over them via runIndexed. Because
// the block grid depends only on n, per-block partials (visit counts,
// loss sums) stored in block-addressed slots always reduce identically.
func runRowBlocks(n int, fn func(worker, block, lo, hi int)) {
	if n <= 0 {
		return
	}
	runIndexed(rowBlockCount(n), func(worker, b int) {
		lo, hi := blockRows(b, n)
		fn(worker, b, lo, hi)
	})
}

package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The matmul kernels share one persistent worker pool instead of
// spawning goroutines per call: a training step issues thousands of
// matrix products, and the spawn/teardown cost of per-call goroutines
// dominated the small products that convolution lowers to. Workers are
// started lazily (the first product large enough to parallelize pays
// the one-time cost) and then live for the life of the process, blocked
// on a task channel when idle.
//
// Sizing: Workers() is the process's number of compute slots, by
// default GOMAXPROCS; constrain it either by lowering GOMAXPROCS before
// first use or by calling SetWorkers. A borrower that computes for a long
// time on its own goroutine — a client holding a classifier worker for
// its round — holds a slot (HoldSlot) until it is done, and a dispatch
// splits only into the slots nobody holds: its caller's own and the free
// ones, Workers() − (held − 1) chunks and never fewer than one. Two
// clients training at width 2 therefore run their products whole, each
// on its own core, instead of each handing half of every product to a
// pool goroutine that has no core to run on; a client left alone in the
// round gets both halves back.
//
// Nesting: a dispatch hands a chunk only to a pool goroutine it has
// reserved as idle, and runs every chunk it could not hand out itself.
// A dispatch inside a chunk of another (or one racing others for the
// pool) therefore never waits for a goroutine that is waiting for it.

// maxPoolWorkers is a hard cap on pool goroutines; it exists so tests
// can force multi-worker execution on single-core machines without the
// pool ever growing unboundedly.
const maxPoolWorkers = 256

// kernelArgs carries a matmul kernel's operands through the task channel
// by value. A typed struct instead of a captured closure keeps the
// parallel dispatch allocation-free: closures sent to the pool would
// escape to the heap on every call, and conv backward dispatches one
// product per batch item.
type kernelArgs struct {
	dst, a, b []float32
	k, n, m   int
	acc       bool
}

// kernelFunc is a row-range kernel over kernelArgs. Implementations are
// top-level functions (matmulKernel etc.), so the func values allocate
// nothing.
type kernelFunc func(g kernelArgs, lo, hi int)

// RangeRunner is a pooled task that processes contiguous index ranges.
// It lets packages outside the matmul kernels (the codec's byte-plane
// encoder) borrow the same persistent workers without a closure
// allocation per dispatch: callers hand over a pooled struct whose
// pointer travels through the task channel inside the interface value.
type RangeRunner interface {
	RunRange(lo, hi int)
}

type poolTask struct {
	run    kernelFunc
	rr     RangeRunner // used when run == nil
	args   kernelArgs
	lo, hi int
	wg     *sync.WaitGroup
}

// wgPool recycles the WaitGroup each parallel dispatch hands to its pool
// tasks; a stack WaitGroup would escape (its pointer travels through the
// channel) and cost an allocation per call.
var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

var (
	// poolTasks only ever holds tasks for reserved workers, at most one
	// per live worker, so a send never blocks.
	poolTasks = make(chan poolTask, maxPoolWorkers)
	poolLimit atomic.Int32 // compute slots: the parallelism bound per call
	poolHeld  atomic.Int32 // slots held by borrowers (HoldSlot)
	poolIdle  atomic.Int32 // live workers no dispatch has reserved
	poolLive  int          // workers actually started (guarded by poolMu)
	poolMu    sync.Mutex
)

func init() {
	poolLimit.Store(int32(clampWorkers(runtime.GOMAXPROCS(0))))
}

func clampWorkers(n int) int {
	if n < 1 {
		return 1
	}
	if n > maxPoolWorkers {
		return maxPoolWorkers
	}
	return n
}

// SetWorkers bounds the parallelism of the matmul kernels. n is clamped
// to [1, 256]; 1 forces fully serial kernels. Raising the limit above
// GOMAXPROCS is allowed (tests use it to exercise the parallel path on
// single-core machines) but does not make the kernels any faster.
// Results never depend on the setting: every output element is
// accumulated in the same order regardless of how rows are partitioned.
func SetWorkers(n int) { poolLimit.Store(int32(clampWorkers(n))) }

// Workers returns the current parallelism bound of the kernel pool.
func Workers() int { return int(poolLimit.Load()) }

// HoldSlot takes one of the Workers() compute slots for a borrower that
// computes on its own goroutine until the matching ReleaseSlot. Holding
// changes how products are split, never their result.
func HoldSlot() { poolHeld.Add(1) }

// ReleaseSlot gives back a slot taken with HoldSlot.
func ReleaseSlot() { poolHeld.Add(-1) }

// freeSlots is the number of chunks a dispatch may use: every slot but
// those other holders keep, counting the caller as one of the holders,
// and at least one.
func freeSlots() int {
	return max(1, Workers()-max(int(poolHeld.Load())-1, 0))
}

// ensureWorkers starts pool goroutines until at least n are live.
func ensureWorkers(n int) {
	poolMu.Lock()
	for poolLive < n {
		poolIdle.Add(1)
		go poolWorker()
		poolLive++
	}
	poolMu.Unlock()
}

// reserve claims up to want idle workers and returns how many it got.
func reserve(want int) int {
	for {
		idle := poolIdle.Load()
		k := min(int(idle), want)
		if k == 0 || poolIdle.CompareAndSwap(idle, idle-int32(k)) {
			return k
		}
	}
}

// poolWorker runs one reserved task at a time. It is idle again before
// it reports the task done, so the dispatch that waited for it can
// reserve it for the next product.
func poolWorker() {
	for t := range poolTasks {
		t.exec(t.lo, t.hi)
		poolIdle.Add(1)
		t.wg.Done()
	}
}

// exec runs the task's kernel or range runner over [lo, hi).
func (t *poolTask) exec(lo, hi int) {
	if t.run != nil {
		t.run(t.args, lo, hi)
	} else {
		t.rr.RunRange(lo, hi)
	}
}

// dispatch splits [0, n) into at most freeSlots() contiguous chunks,
// sends a copy of t for each of the last chunks to a reserved pool
// worker, runs the others — the first always — on the calling goroutine
// and waits for completion. t travels by value, so a dispatch allocates
// nothing.
func dispatch(n int, t poolTask) {
	workers := min(freeSlots(), n)
	if workers <= 1 {
		if n > 0 {
			t.exec(0, n)
		}
		return
	}
	ensureWorkers(workers - 1)
	chunk := (n + workers - 1) / workers
	rest := (n - 1) / chunk // chunks after the first
	sent := reserve(rest)
	split := min((1+rest-sent)*chunk, n)
	t.wg = wgPool.Get().(*sync.WaitGroup)
	t.wg.Add(sent)
	for lo := split; lo < n; lo += chunk {
		t.lo, t.hi = lo, min(lo+chunk, n)
		poolTasks <- t
	}
	for lo := 0; lo < split; lo += chunk {
		t.exec(lo, min(lo+chunk, split))
	}
	t.wg.Wait()
	wgPool.Put(t.wg)
}

// ParallelRanges splits [0, n) into at most as many contiguous chunks as
// there are free compute slots (see dispatch), runs the first chunk on
// the calling goroutine and the rest on the pool, and waits for
// completion. rr.RunRange must be safe to execute concurrently on
// disjoint ranges. Like the kernels, results must never depend on the
// partitioning; the codec's per-plane encoder satisfies this because
// each plane is encoded independently and concatenated in index order
// afterwards.
func ParallelRanges(rr RangeRunner, n int) { dispatch(n, poolTask{rr: rr}) }

// parallelRows is ParallelRanges for a row kernel: run must be safe to
// execute concurrently on disjoint row ranges (the kernels are: each row
// of dst is written by exactly one chunk).
func parallelRows(m int, run kernelFunc, args kernelArgs) {
	dispatch(m, poolTask{run: run, args: args})
}

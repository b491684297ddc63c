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
// Sizing: the pool defaults to GOMAXPROCS workers and never uses more
// than Workers() chunks per call. Constrain it either by lowering
// GOMAXPROCS before first use or by calling SetWorkers.

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
	poolTasks = make(chan poolTask, 4*maxPoolWorkers)
	poolLimit atomic.Int32 // desired parallelism per call
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

// ensureWorkers starts pool goroutines until at least n are live.
func ensureWorkers(n int) {
	poolMu.Lock()
	for poolLive < n {
		go poolWorker()
		poolLive++
	}
	poolMu.Unlock()
}

func poolWorker() {
	for t := range poolTasks {
		t.exec(t.lo, t.hi)
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

// dispatch splits [0, n) into at most Workers() contiguous chunks, sends
// a copy of t for every chunk but the first to the pool, runs the first
// on the calling goroutine and waits for completion. t travels by value,
// so a dispatch allocates nothing.
func dispatch(n int, t poolTask) {
	workers := min(Workers(), n)
	if workers <= 1 {
		if n > 0 {
			t.exec(0, n)
		}
		return
	}
	ensureWorkers(workers - 1)
	chunk := (n + workers - 1) / workers
	t.wg = wgPool.Get().(*sync.WaitGroup)
	for lo := chunk; lo < n; lo += chunk {
		t.lo, t.hi = lo, min(lo+chunk, n)
		t.wg.Add(1)
		poolTasks <- t
	}
	t.exec(0, chunk)
	t.wg.Wait()
	wgPool.Put(t.wg)
}

// ParallelRanges splits [0, n) into at most Workers() contiguous chunks,
// runs the first chunk on the calling goroutine and the rest on the
// pool, and waits for completion. rr.RunRange must be safe to execute
// concurrently on disjoint ranges. Like the kernels, results must never
// depend on the partitioning; the codec's per-plane encoder satisfies
// this because each plane is encoded independently and concatenated in
// index order afterwards.
func ParallelRanges(rr RangeRunner, n int) { dispatch(n, poolTask{rr: rr}) }

// parallelRows is ParallelRanges for a row kernel: run must be safe to
// execute concurrently on disjoint row ranges (the kernels are: each row
// of dst is written by exactly one chunk).
func parallelRows(m int, run kernelFunc, args kernelArgs) {
	dispatch(m, poolTask{run: run, args: args})
}

package classifier

import (
	"sync"

	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/nn"
	"fedguard/internal/opt"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// Worker is everything a client round computes on: a classifier of one
// architecture with what training and scoring it reallocate beside a
// fresh one — the batch buffer and the SGD velocity — and, once a
// FedGuard client has borrowed it, a CVAE with its Adam. The models'
// layer scratch (≈ 8 MB for the small classifier at batch 32) is grown
// once and stays with them.
//
// A worker carries nothing from one use to the next that a result can
// depend on. A client that would build Arch(r) and load the global calls
// Model.Reset(r) and loads the global: by nn.Resetter's contract that is
// the same model and the same r afterwards, whoever held the worker
// before and whatever batch sizes they ran (TestBorrowedEqualsFresh).
// CVAE(cfg, r) stands in for cvae.New(cfg, r) the same way.
type Worker struct {
	Model *nn.Sequential

	sgd    *opt.SGD
	x      *tensor.Tensor // batch scratch, see dataset.BatchInto
	labels []int
	gen    *cvae.CVAE // built by the first CVAE call
}

// CVAE returns the worker's CVAE as cvae.New(cfg, r) would build it: the
// same weights, and r left where New leaves it. The first call builds
// it, and so does a call with another cfg — a process's set serves every
// federation of its architecture — while a later one resets it from r,
// keeping its Adam moments and scratch (TestBorrowedCVAEEqualsFresh).
func (w *Worker) CVAE(cfg cvae.Config, r *rng.RNG) *cvae.CVAE {
	if w.gen == nil || w.gen.Cfg != cfg {
		w.gen = cvae.New(cfg, r)
	} else {
		w.gen.Reset(r)
	}
	return w.gen
}

// countCorrect returns how many of ds[indices] the model classifies
// correctly, running inference in batches of evalBatch.
func (w *Worker) countCorrect(ds *dataset.Dataset, indices []int) int {
	correct := 0
	for off := 0; off < len(indices); off += evalBatch {
		end := min(off+evalBatch, len(indices))
		w.x, w.labels = ds.BatchInto(w.x, w.labels, indices[off:end])
		correct += CountCorrectTensor(w.Model, w.x, w.labels)
	}
	return correct
}

// Set is a bounded set of workers of one architecture. It is a process's
// (or one in-process run's) whole supply of classifiers: whoever needs
// one — a client for its whole round, the server to evaluate ψ — borrows
// it with Get and hands it back with Put, so at most Size models exist
// and at most Size borrowers compute at once. Workers are built on
// demand: a set nobody borrows from costs nothing, and one client alone
// in its process builds one model however large the set.
type Set struct {
	arch Arch
	size int

	mu        sync.Mutex
	freed     sync.Cond
	free      []*Worker // a stack: the worker put back last goes out first
	built     int
	numParams int
}

// NewSet returns an empty set of workers of architecture arch, bounded
// by the tensor pool's width when it is built: tensor.Workers(), the one
// parallelism bound every parallel layer shares.
func NewSet(arch Arch) *Set {
	s := &Set{arch: arch, size: tensor.Workers()}
	s.freed.L = &s.mu
	return s
}

// Built returns how many workers the set has built so far.
func (s *Set) Built() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.built
}

// Idle returns how many built workers nobody holds. Idle == Built means
// every borrowed worker came back.
func (s *Set) Idle() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free)
}

// NumParams returns the architecture's parameter count, building the
// first worker if there is none yet to read it from.
func (s *Set) NumParams() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.built == 0 {
		s.free = append(s.free, s.build())
	}
	return s.numParams
}

// build adds a worker to the set. Its initial parameters are never read:
// every borrower resets or loads them. The caller holds mu.
func (s *Set) build() *Worker {
	w := &Worker{Model: s.arch(rng.New(0))}
	s.numParams = w.Model.NumParams()
	s.built++
	return w
}

// Get borrows a worker, blocking while all Size of them are out. The
// caller owns it — models, scratch and all — until Put, and must Put it
// back on every path (defer): a worker that does not return is a
// borrower the set can no longer serve.
func (s *Set) Get() *Worker {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.free) == 0 && s.built == s.size {
		s.freed.Wait()
	}
	if n := len(s.free); n > 0 {
		w := s.free[n-1]
		s.free = s.free[:n-1]
		return w
	}
	return s.build()
}

// Put returns a worker borrowed with Get.
func (s *Set) Put(w *Worker) {
	s.mu.Lock()
	s.free = append(s.free, w)
	s.mu.Unlock()
	s.freed.Signal()
}

// Evaluate is Evaluate for the parameter vector params, on as many of
// the set's workers at once as there are batches to give them: each
// takes a contiguous run of whole evalBatch batches, and the integer
// correct-counts are summed. Rows are scored independently and in the
// batches Evaluate would put them in, so the result is its float exactly,
// at any set size. It blocks for workers like any borrower; params of the
// wrong length are an error.
func (s *Set) Evaluate(params []float32, ds *dataset.Dataset, indices []int) (float64, error) {
	if len(indices) == 0 {
		return 0, nil
	}
	batches := (len(indices) + evalBatch - 1) / evalBatch
	k := min(s.size, batches)
	counts := make([]int, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for j := range k {
		lo := j * batches / k * evalBatch
		hi := min((j+1)*batches/k*evalBatch, len(indices))
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := s.Get()
			defer s.Put(w)
			if errs[j] = w.Model.LoadParams(params); errs[j] == nil {
				counts[j] = w.countCorrect(ds, indices[lo:hi])
			}
		}()
	}
	wg.Wait()
	correct := 0
	for j, err := range errs {
		if err != nil {
			return 0, err
		}
		correct += counts[j]
	}
	return float64(correct) / float64(len(indices)), nil
}

package classifier

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// poolWidth sets the tensor pool's width — what a set built afterwards is
// sized by — for the rest of the test.
func poolWidth(t *testing.T, n int) {
	prev := tensor.Workers()
	tensor.SetWorkers(n)
	t.Cleanup(func() { tensor.SetWorkers(prev) })
}

// borrower is one client's round as the two implementations see it: a
// partition, a stream, and what came out.
type borrower struct {
	indices []int
	seed    uint64

	weights []float32
	state   rng.State
}

// TestBorrowedEqualsFresh is the property client training rests on: a
// worker reset from a client's stream and loaded with the global is the
// model that client would have built from its stream, and leaves the
// stream where building would — whoever trained on the worker before,
// at whatever batch sizes, and with an evaluation pass (inference, a
// different batch size) in between. Weights and streams are compared
// with the build-a-model-per-round reference, in either borrow order.
func TestBorrowedEqualsFresh(t *testing.T) {
	ds := dataset.Generate(96, dataset.DefaultGenOptions(), rng.New(0xb0))
	cfg := TrainConfig{Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9}
	evalIdx := dataset.Range(50) // batches of 32 and 18
	for _, tc := range []struct {
		name string
		arch Arch
	}{{"tiny", Tiny()}, {"small", Small()}} {
		t.Run(tc.name, func(t *testing.T) {
			global := tc.arch(rng.New(0x610ba1)).FlattenParams()
			// 36 = two full batches and a 4-row tail; 20 = one and a tail.
			clients := []borrower{
				{indices: dataset.Range(96)[:36], seed: 1},
				{indices: dataset.Range(96)[40:60], seed: 2},
			}
			for i := range clients {
				c := &clients[i]
				r := rng.New(c.seed)
				model := tc.arch(r)
				if err := model.LoadParams(global); err != nil {
					t.Fatal(err)
				}
				Train(model, ds, c.indices, cfg, r)
				c.weights, c.state = model.FlattenParams(), r.State()
			}
			if reflect.DeepEqual(clients[0].weights, clients[1].weights) {
				t.Fatal("the two clients trained to the same weights: the comparison below would be vacuous")
			}

			poolWidth(t, 1)
			for _, order := range [][]int{{0, 1}, {1, 0}} {
				set := NewSet(tc.arch)
				for k, i := range order {
					c := clients[i]
					r := rng.New(c.seed)
					w := set.Get()
					w.Model.Reset(r)
					if err := w.Model.LoadParams(global); err != nil {
						t.Fatal(err)
					}
					w.Train(ds, c.indices, cfg, r)
					got := w.Model.FlattenParams()
					set.Put(w)
					if !reflect.DeepEqual(got, c.weights) {
						t.Fatalf("order %v: client %d trained different weights on a borrowed worker", order, i)
					}
					if r.State() != c.state {
						t.Fatalf("order %v: client %d's stream ended at %+v, building leaves it at %+v", order, i, r.State(), c.state)
					}
					if k == 0 {
						if _, err := set.Evaluate(got, ds, evalIdx); err != nil {
							t.Fatal(err)
						}
					}
				}
				if set.Built() != 1 || set.Idle() != 1 {
					t.Fatalf("order %v: built %d workers, %d idle; want one, back in the set", order, set.Built(), set.Idle())
				}
			}
		})
	}
}

// TestBorrowedCVAEEqualsFresh is TestBorrowedEqualsFresh for the
// worker's CVAE: each client's decoder and stream, trained on the CVAE
// the worker hands out, equal what cvae.New from the client's stream
// would train — after another client trained on it, and across a change
// of cvae.Config, which rebuilds it.
func TestBorrowedCVAEEqualsFresh(t *testing.T) {
	ds := dataset.Generate(96, dataset.DefaultGenOptions(), rng.New(0xc7a))
	tc := cvae.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3}
	narrow := cvae.Config{Input: 784, Hidden: 32, Latent: 2, Classes: 10}
	clients := []struct {
		cfg     cvae.Config
		indices []int
		seed    uint64
	}{
		{cvae.SmallConfig(), dataset.Range(96)[:36], 1},   // builds
		{cvae.SmallConfig(), dataset.Range(96)[40:60], 2}, // resets
		{narrow, dataset.Range(96)[60:], 3},               // rebuilds
		{narrow, dataset.Range(96)[:20], 4},               // resets
	}
	w := &Worker{}
	var gens []*cvae.CVAE
	for i, c := range clients {
		r := rng.New(c.seed)
		fresh := cvae.New(c.cfg, r)
		fresh.Train(ds, c.indices, tc, r)
		want, wantState := fresh.DecoderParams(), r.State()

		r = rng.New(c.seed)
		gen := w.CVAE(c.cfg, r)
		gen.Train(ds, c.indices, tc, r)
		if !reflect.DeepEqual(gen.DecoderParams(), want) {
			t.Fatalf("client %d trained a different decoder on the worker's CVAE", i)
		}
		if r.State() != wantState {
			t.Fatalf("client %d's stream ended at %+v, building leaves it at %+v", i, r.State(), wantState)
		}
		gens = append(gens, gen)
	}
	if gens[0] != gens[1] || gens[2] != gens[3] || gens[1] == gens[2] {
		t.Fatal("the worker should keep its CVAE while the config holds and rebuild it when it changes")
	}
}

// TestSetEvaluateEqualsEvaluate is the property the server's evaluation
// rests on: splitting the test set over W workers by whole batches and
// summing integer counts returns Evaluate's float on one model, and a
// set builds no more workers than it has batches to hand out.
func TestSetEvaluateEqualsEvaluate(t *testing.T) {
	ds := dataset.Generate(600, dataset.DefaultGenOptions(), rng.New(0xe7a1))
	r := rng.New(3)
	model := Tiny()(r)
	Train(model, ds, dataset.Range(200), TrainConfig{Epochs: 1, BatchSize: 32, LR: 0.05, Momentum: 0.9}, r)
	params := model.FlattenParams()
	for _, n := range []int{1, 31, 32, 33, 400, 600} {
		indices := dataset.Range(n)
		want := Evaluate(model, ds, indices)
		batches := (n + evalBatch - 1) / evalBatch
		for _, w := range []int{1, 2, 3, 5} {
			poolWidth(t, w)
			set := NewSet(Tiny())
			got, err := set.Evaluate(params, ds, indices)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("n=%d W=%d: accuracy %v, one model says %v", n, w, got, want)
			}
			if built := set.Built(); built < 1 || built > min(w, batches) {
				t.Errorf("n=%d W=%d: built %d workers for %d batches", n, w, built, batches)
			}
			if set.Idle() != set.Built() {
				t.Errorf("n=%d W=%d: %d of %d workers came back", n, w, set.Idle(), set.Built())
			}
		}
	}
	if want := Evaluate(model, ds, dataset.Range(600)); want < 0.2 {
		t.Fatalf("reference accuracy %v: the model scores nothing, equal floats would prove little", want)
	}
	poolWidth(t, 2)
	set := NewSet(Tiny())
	if acc, err := set.Evaluate(params, ds, nil); acc != 0 || err != nil {
		t.Fatalf("empty evaluation = %v, %v; want 0, nil", acc, err)
	}
	if _, err := set.Evaluate(params[1:], ds, dataset.Range(40)); err == nil {
		t.Fatal("a parameter vector of the wrong length evaluated")
	}
	if set.Idle() != set.Built() {
		t.Fatalf("after a refused vector %d of %d workers came back", set.Idle(), set.Built())
	}
}

// TestSetBoundsBorrowers hammers one set from many goroutines: no more
// than Size workers exist or are held at once, a held worker is held by
// one goroutine only, and a borrower that panics mid-hold (and defers
// its Put, as every borrower must) strands nothing. Run it under -race
// -count=10 (make race does).
func TestSetBoundsBorrowers(t *testing.T) {
	const size, goroutines, turns = 3, 16, 40
	poolWidth(t, size)
	set := NewSet(Tiny())
	if set.NumParams() != Tiny()(rng.New(0)).NumParams() || set.Built() != 1 {
		t.Fatalf("NumParams = %d with %d built", set.NumParams(), set.Built())
	}
	var held, maxHeld atomic.Int32
	holders := map[*Worker]int{}
	var mu sync.Mutex
	borrow := func(g, turn int) {
		defer func() {
			if p := recover(); p != nil && p != "borrower gave up" {
				panic(p)
			}
		}()
		w := set.Get()
		defer set.Put(w)
		n := held.Add(1)
		defer held.Add(-1)
		for m := maxHeld.Load(); n > m && !maxHeld.CompareAndSwap(m, n); m = maxHeld.Load() {
		}
		mu.Lock()
		holders[w]++
		shared := holders[w] != 1
		mu.Unlock()
		defer func() {
			mu.Lock()
			holders[w]--
			mu.Unlock()
		}()
		if shared {
			t.Errorf("goroutine %d was handed a worker somebody holds", g)
		}
		w.Model.Params()[0].Value.Data[0] = float32(g) // a race if it is shared
		runtime.Gosched()
		if g == 5 && turn == 7 {
			panic("borrower gave up")
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for turn := 0; turn < turns; turn++ {
				borrow(g, turn)
			}
		}()
	}
	wg.Wait()
	if m := maxHeld.Load(); m > size {
		t.Fatalf("%d workers held at once, the set has %d", m, size)
	}
	if set.Built() > size || set.Idle() != set.Built() {
		t.Fatalf("built %d of %d, %d idle", set.Built(), size, set.Idle())
	}
	if len(holders) != set.Built() {
		t.Fatalf("%d distinct workers seen, %d built", len(holders), set.Built())
	}
	if got := freeChunks(); got != size {
		t.Fatalf("a parallel range splits into %d chunks after every borrow, want %d: a slot was not given back", got, size)
	}
}

// chunkCounter is a tensor.RangeRunner that counts the chunks it runs.
type chunkCounter struct{ n *atomic.Int32 }

func (c chunkCounter) RunRange(lo, hi int) { c.n.Add(1) }

// freeChunks is how many chunks a parallel range splits into now: the
// compute slots no borrower holds, counting the caller as one.
func freeChunks() int {
	var n atomic.Int32
	tensor.ParallelRanges(chunkCounter{&n}, 60)
	return int(n.Load())
}

// TestBorrowHoldsASlot: a worker borrowed from a set holds one compute
// slot until Put, so a parallel range splits only into the slots other
// borrowers do not hold — Workers() − (held − 1), at least one.
func TestBorrowHoldsASlot(t *testing.T) {
	poolWidth(t, 3)
	set := NewSet(Tiny())
	var held []*Worker
	for _, want := range []int{3, 3, 2, 1} {
		if got := freeChunks(); got != want {
			t.Fatalf("with %d workers borrowed: %d chunks, want %d", len(held), got, want)
		}
		if len(held) < 3 {
			held = append(held, set.Get())
		}
	}
	for _, want := range []int{2, 3, 3} {
		set.Put(held[len(held)-1])
		held = held[:len(held)-1]
		if got := freeChunks(); got != want {
			t.Fatalf("with %d workers borrowed: %d chunks, want %d", len(held), got, want)
		}
	}
}

// TestNewSetDefaultsToGOMAXPROCS pins where a set's bound comes from:
// the tensor pool's width when the set is built, read once — GOMAXPROCS
// (capped at the pool's 256) unless something set the width.
func TestNewSetDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := NewSet(Tiny()).size, min(runtime.GOMAXPROCS(0), 256); got != want {
		t.Fatalf("a set built at the default width has size %d, want GOMAXPROCS = %d", got, want)
	}
	poolWidth(t, 4)
	set := NewSet(Tiny())
	tensor.SetWorkers(7)
	if set.size != 4 || set.Built() != 0 {
		t.Fatalf("a set built at width 4: size %d, built %d", set.size, set.Built())
	}
	if got := NewSet(Tiny()).size; got != 7 {
		t.Fatalf("a set built at width 7 has size %d", got)
	}
}

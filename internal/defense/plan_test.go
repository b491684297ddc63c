package defense

import (
	"fmt"
	"slices"
	"testing"

	"fedguard/internal/cvae"
	"fedguard/internal/rng"
)

// planScope is one scenario of the exhaustive walk over the audit
// plan's job choice.
type planScope struct {
	m, t    int
	routed  bool
	badDec  []int // slots whose decoder is refused at submit
	badW    []int // slots whose weights fail their first scoring job
	held    bool  // the barrier schedule: submitted while held, then released
	workers int   // jobs in flight at most
}

func (sc planScope) String() string {
	sched := "stream"
	if sc.held {
		sched = "barrier"
	}
	return fmt.Sprintf("m=%d/t=%d/routed=%v/badDec=%v/badW=%v/%s/w=%d",
		sc.m, sc.t, sc.routed, sc.badDec, sc.badW, sched, sc.workers)
}

// walkState is one node of the walk: the plan under test and what the
// walk itself knows of the round so far, kept apart from the plan so
// that the plan is checked against it rather than against itself.
type walkState struct {
	p        auditPlan
	inflight []job
	order    []int // blocks in the order they completed
	claimed  []bool
	scoredTo []int // by slot: the end of its last claimed range
	jobs     []int // by slot: scoring jobs claimed
	synth    int   // synthesis jobs claimed
	released bool
}

func (w *walkState) clone() *walkState {
	p := w.p
	p.errs = slices.Clone(p.errs)
	p.classes = slices.Clone(p.classes)
	p.claimed = slices.Clone(p.claimed)
	p.rows = slices.Clone(p.rows)
	p.arrived = slices.Clone(p.arrived)
	p.scored = slices.Clone(p.scored)
	p.hits = slices.Clone(p.hits)
	return &walkState{
		p:        p,
		inflight: slices.Clone(w.inflight),
		order:    slices.Clone(w.order),
		claimed:  slices.Clone(w.claimed),
		scoredTo: slices.Clone(w.scoredTo),
		jobs:     slices.Clone(w.jobs),
		synth:    w.synth,
		released: w.released,
	}
}

// key is the walk's visited-set key: the plan's whole state and the
// walk's own. In-flight jobs are a set.
func (w *walkState) key() string {
	p := &w.p
	b := make([]byte, 0, 64)
	bit := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	b = append(b, bit(p.hold), bit(p.closed), bit(p.misused), bit(p.samples != nil), bit(w.released), byte(w.synth))
	for _, err := range p.errs {
		b = append(b, bit(err != nil))
	}
	for d := range p.m {
		b = append(b, bit(p.arrived[d]), bit(p.claimed[d]), bit(w.claimed[d]),
			byte(p.scored[d]), byte(p.hits[d]), byte(w.scoredTo[d]))
	}
	b = append(b, 0xff)
	for _, r := range p.rows {
		b = append(b, byte(r))
	}
	b = append(b, 0xff)
	for _, d := range w.order {
		b = append(b, byte(d))
	}
	b = append(b, 0xff)
	inflight := slices.Clone(w.inflight)
	slices.SortFunc(inflight, cmpJobs)
	for _, j := range inflight {
		b = append(b, byte(j.block+1), byte(j.slot+1), byte(j.lo), byte(j.hi))
	}
	return string(b)
}

// cmpJobs orders jobs by their fields.
func cmpJobs(x, y job) int {
	for _, d := range [4]int{x.block - y.block, x.slot - y.slot, x.lo - y.lo, x.hi - y.hi} {
		if d != 0 {
			return d
		}
	}
	return 0
}

// planWalk walks every state a scope reaches.
type planWalk struct {
	t        *testing.T
	sc       planScope
	g        *FedGuard
	labels   []int
	classes  [][]int
	decErr   []error
	wErr     []error
	blocks   [][]int // assignSamples' partition with every class list in
	want     error   // the round's error: the lowest-index one
	seen     map[string]bool
	ends     int
	failures int
}

// hit is the walk's stand-in for a forward pass: whether slot's update
// classifies sample i's row correctly.
func hit(slot, i int) int {
	if (slot+1)*(i+3)%3 == 0 {
		return 1
	}
	return 0
}

func newPlanWalk(t *testing.T, sc planScope) *planWalk {
	g := &FedGuard{CVAECfg: cvae.Config{Classes: 10}, UseDecoderClasses: sc.routed}
	r := rng.New(uint64(100*sc.m + sc.t))
	labels := make([]int, sc.t)
	for i := range labels {
		labels[i] = r.CategoricalUniform(10)
	}
	w := &planWalk{t: t, sc: sc, g: g, labels: labels,
		classes: make([][]int, sc.m), decErr: make([]error, sc.m), wErr: make([]error, sc.m),
		seen: map[string]bool{}}
	for d := range sc.m {
		// Slot 1 brings no list (trained on everything), so any class no
		// other slot lists is claimed by it alone.
		if sc.routed && d != 1 {
			w.classes[d] = []int{d, d + 1, d + 2}
		}
	}
	for _, d := range sc.badDec {
		w.decErr[d] = fmt.Errorf("decoder %d", d)
	}
	for _, j := range sc.badW {
		w.wErr[j] = fmt.Errorf("weights %d", j)
	}
	w.blocks = make([][]int, sc.m)
	for i, d := range g.assignSamples(labels, sc.m, w.classes) {
		w.blocks[d] = append(w.blocks[d], i)
	}
	for _, err := range append(slices.Clone(w.decErr), w.wErr...) {
		if err != nil {
			w.want = err
			break
		}
	}
	return w
}

func (w *planWalk) fail(format string, args ...any) {
	w.t.Helper()
	w.failures++
	if w.failures <= 3 {
		w.t.Errorf("%v: "+format, append([]any{w.sc}, args...)...)
	}
}

// ready is the number of rows in completed blocks.
func (w *planWalk) ready(s *walkState) int {
	n := 0
	for _, d := range s.order {
		n += len(w.blocks[d])
	}
	return n
}

// rowSample maps a row to its sample by the walk's own completion order.
func (w *planWalk) rowSample(s *walkState, row int) int {
	for _, d := range s.order {
		if row < len(w.blocks[d]) {
			return w.blocks[d][row]
		}
		row -= len(w.blocks[d])
	}
	return -1 // past the completed blocks; claim has failed the walk
}

// claim hands out the plan's enabled job, if any, checking it.
func (w *planWalk) claim(s *walkState) bool {
	j, ok := s.p.next()
	if !ok {
		return false
	}
	switch {
	case j.block >= 0:
		d := j.block
		if s.claimed[d] {
			w.fail("block %d claimed twice", d)
		}
		if !slices.Equal(s.p.samples[d], w.blocks[d]) {
			w.fail("block %d holds samples %v, assignSamples gives %v", d, s.p.samples[d], w.blocks[d])
		}
		if !s.p.arrived[d] || w.decErr[d] != nil {
			w.fail("block %d claimed with its decoder unbound", d)
		}
		s.claimed[d] = true
		s.synth++
	default:
		if w.sc.held && !s.released {
			w.fail("slot %d scored while held", j.slot)
		}
		if j.lo != s.scoredTo[j.slot] || j.hi <= j.lo || j.hi > w.ready(s) {
			w.fail("slot %d claimed rows [%d, %d) after [0, %d) with %d rows complete",
				j.slot, j.lo, j.hi, s.scoredTo[j.slot], w.ready(s))
		}
		if !s.p.arrived[j.slot] {
			w.fail("slot %d scored before it arrived", j.slot)
		}
		// Each job short of a slab ends the set, so a slot takes at most
		// ⌈t/slab⌉ <= scorePasses jobs on any path; on the barrier
		// schedule its one job covers the whole set.
		if slab := (w.sc.t + scorePasses - 1) / scorePasses; j.hi < w.sc.t && j.hi-j.lo < slab {
			w.fail("slot %d claimed rows [%d, %d), short of a %d-row slab, before the set was complete", j.slot, j.lo, j.hi, slab)
		}
		if w.sc.held && len(w.sc.badDec) == 0 && (j.lo != 0 || j.hi != w.sc.t) {
			w.fail("the barrier scored slot %d over rows [%d, %d), not the whole set", j.slot, j.lo, j.hi)
		}
		s.scoredTo[j.slot] = j.hi
		s.jobs[j.slot]++
		if s.jobs[j.slot] > scorePasses {
			w.fail("slot %d took %d scoring jobs, over %d", j.slot, s.jobs[j.slot], scorePasses)
		}
	}
	s.inflight = append(s.inflight, j)
	return true
}

// complete finishes in-flight job k.
func (w *planWalk) complete(s *walkState, k int) {
	j := s.inflight[k]
	s.inflight = slices.Delete(s.inflight, k, k+1)
	if j.block >= 0 {
		s.order = append(s.order, j.block)
		s.p.done(j, 0, nil)
		if !s.p.closed {
			for row, r := range s.p.rows {
				if r != w.rowSample(s, row) {
					w.fail("row %d is sample %d; blocks completed in order %v", row, r, s.order)
					break
				}
			}
		}
		return
	}
	if err := w.wErr[j.slot]; err != nil {
		s.p.done(j, 0, err)
		return
	}
	hits := 0
	for row := j.lo; row < j.hi; row++ {
		hits += hit(j.slot, w.rowSample(s, row))
	}
	s.p.done(j, hits, nil)
}

// roundErr is the error the pool reports for the plan.
func roundErr(p *auditPlan) error {
	for _, err := range p.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkAbort closes s — a copy of it while jobs are in flight — and
// checks that nothing can be claimed or submitted, before or after the
// in-flight jobs come back.
func (w *planWalk) checkAbort(s *walkState) {
	c, misused := s, s.p.misused
	if len(s.inflight) > 0 {
		c = s.clone()
	}
	c.p.closed = true
	for pass := 0; pass < 2; pass++ {
		if j, ok := c.p.next(); ok {
			w.fail("closed plan handed out %+v", j)
		}
		for slot := range w.sc.m {
			if c.p.submit(slot, nil, nil) {
				w.fail("closed plan took slot %d", slot)
			}
		}
		for len(c.inflight) > 0 {
			w.complete(c, 0)
		}
	}
	if c.p.misused != misused {
		w.fail("a submit to a closed plan marked it misused")
	}
	s.p.closed = false
}

// checkMisuse submits slots out of range, and an arrived one again, to
// s, whose key is k: each is refused as misuse and changes nothing else.
func (w *planWalk) checkMisuse(s *walkState, k string) {
	misused := s.p.misused
	bad := []int{-1, w.sc.m}
	if i := slices.Index(s.p.arrived, true); i >= 0 {
		bad = append(bad, i)
	}
	for _, slot := range bad {
		s.p.misused = false
		if s.p.submit(slot, []int{0}, errMisuse) || !s.p.misused {
			w.fail("submit(%d) was not refused as misuse", slot)
		}
	}
	s.p.misused = misused
	if s.key() != k {
		w.fail("a refused submit changed the plan")
	}
}

var errMisuse = fmt.Errorf("submitted again")

// end checks a state with no move left.
func (w *planWalk) end(s *walkState) {
	w.ends++
	if got := roundErr(&s.p); got != w.want {
		w.fail("round error %v, want %v", got, w.want)
	}
	if len(w.sc.badDec) > 0 {
		return // the set never completes; the error is the round's
	}
	if len(s.p.rows) != w.sc.t {
		w.fail("%d rows at the end, want %d", len(s.p.rows), w.sc.t)
	}
	total := s.synth
	for j := range w.sc.m {
		total += s.jobs[j]
		if w.wErr[j] != nil {
			continue
		}
		want := 0
		for i := range w.sc.t {
			want += hit(j, i)
		}
		if s.scoredTo[j] != w.sc.t || s.p.scored[j] != w.sc.t || s.p.hits[j] != want {
			w.fail("slot %d scored [0, %d) (plan: %d) for %d hits, want [0, %d) for %d",
				j, s.scoredTo[j], s.p.scored[j], s.p.hits[j], w.sc.t, want)
		}
	}
	want := w.sc.m // one scoring job per slot, and one synthesis job per non-empty block
	for _, b := range w.blocks {
		if len(b) > 0 {
			want++
		}
	}
	if w.sc.held && len(w.sc.badW) == 0 && total != want {
		w.fail("the barrier ran %d jobs, want %d", total, want)
	}
}

// visit explores every move from s: a pending slot arrives, a free
// worker claims the enabled job, an in-flight job completes, or — on
// the barrier schedule, once all have arrived and nothing runs — the
// hold is released.
func (w *planWalk) visit(s *walkState) {
	k := s.key()
	if w.seen[k] || w.failures > 3 {
		return
	}
	w.seen[k] = true
	w.checkAbort(s)
	w.checkMisuse(s, k)

	moved := false
	for slot := range w.sc.m {
		if s.p.arrived[slot] {
			continue
		}
		c := s.clone()
		if !c.p.submit(slot, w.classes[slot], w.decErr[slot]) {
			w.fail("slot %d was refused", slot)
		}
		w.visit(c)
		moved = true
	}
	if len(s.inflight) < w.sc.workers {
		c := s.clone()
		if w.claim(c) {
			w.visit(c)
			moved = true
		}
	}
	for k := range s.inflight {
		c := s.clone()
		w.complete(c, k)
		w.visit(c)
		moved = true
	}
	if !moved && w.sc.held && !s.released {
		c := s.clone()
		c.p.hold, c.released = false, true
		w.visit(c)
		moved = true
	}
	if !moved {
		w.end(s)
	}
}

// TestAuditPlanJobShape walks the audit plan's job choice — the
// single-threaded core the pool runs — through every state it reaches at
// small scope: every arrival order, every interleaving of claims and
// completions with up to three jobs in flight (two at m = 4), m from 2
// to 4 and t at m-1, 2m and 12, on the stream schedule
// and on the barrier's (every slot submitted while held, then released),
// round-robin and class-routed, with refused decoders and failing
// weights, and with an abort and a misused submit tried at every state.
// Along every path it holds the plan to its contract: no block is
// claimed twice and each holds assignSamples' partition of the samples;
// rows join the set in the order blocks complete; a scoring job covers
// only complete rows, right after the slot's previous range; a slot
// takes at most scorePasses scoring jobs; a closed plan hands out
// nothing. At every end state each slot with good weights has scored
// exactly [0, t) for the spec's hits, the round's error is the
// lowest-index one, and the barrier ran one synthesis job per block with
// samples — min(t, m) when round-robin — and m scoring jobs.
func TestAuditPlanJobShape(t *testing.T) {
	states := 0
	for m := 2; m <= 4; m++ {
		workers := min(m, 3)
		if m == 4 {
			workers = 2 // three in flight is covered at m = 3; at m = 4 it is 6x the states
		}
		for _, samples := range []int{m - 1, 2 * m, 12} {
			for _, routed := range []bool{false, true} {
				for _, faults := range []struct{ dec, w []int }{
					{},
					{w: []int{0, m - 1}},
					{dec: []int{m - 1}, w: []int{0}},
				} {
					for _, held := range []bool{false, true} {
						sc := planScope{m: m, t: samples, routed: routed, badDec: faults.dec, badW: faults.w,
							held: held, workers: workers}
						w := newPlanWalk(t, sc)
						w.visit(&walkState{
							p:        newAuditPlan(w.g, w.labels, m, held),
							claimed:  make([]bool, m),
							scoredTo: make([]int, m),
							jobs:     make([]int, m),
						})
						if w.ends == 0 {
							t.Errorf("%v: no end state reached", sc)
						}
						states += len(w.seen)
					}
				}
			}
		}
	}
	t.Logf("%d states", states)
}

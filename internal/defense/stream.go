package defense

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"fedguard/internal/aggregate"
	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/fl"
	"fedguard/internal/nn"
	"fedguard/internal/tensor"
)

// The audit plan is FedGuard's one implementation of Alg. 1 lines 1–5;
// the barrier audit (Aggregate) and the streaming audit (BeginRound,
// Submit, Finalize) are two arrival schedules of it. Every RNG draw
// happens once m is known, on a clone of the round RNG, so the original
// stays pristine for a plan re-begun on the delivered updates. The plan
// is a single-threaded core, auditPlan, that chooses jobs — no lock, no
// goroutine, no clock, so a test walks every state it reaches — and a
// pool, AuditStream, that runs them on the audit models. Slot d's
// arrival binds decoder d; once the samples are partitioned — at once
// when round-robin, at the last arrival when class-routed — a bound
// decoder's block is synthesized and its rows join the set in the order
// blocks complete. An arrived update is scored against every ready row
// it has not seen, in one job and one LoadParams, once a slab is waiting
// for it or the set is complete. A row's pixels depend only on its own
// (z, y) and decoder, the forward pass is per-row, and hits are summed
// as integers, so the accuracies — and the filtered aggregate — are
// byte-identical at any worker count, arrival order and schedule.

// scorePasses is how many slabs the synthetic set is scored in: a slab
// is ⌈t/scorePasses⌉ rows. It bounds the scoring jobs one update takes
// and the batch an audit model ever sees, so a model's batch-sized
// scratch is sized once by its first slab rather than regrown for every
// larger backlog (tensor.Ensure grows exactly). Scoring costs the same
// per row at any batch size, so the slab is not a tuning knob.
const scorePasses = 4

// job is one unit of audit work: block's synthesis when block >= 0,
// else slot's scoring of rows [lo, hi). A value: it allocates nothing.
type job struct{ block, slot, lo, hi int }

// auditPlan is the audit's job choice: arrivals go in through submit,
// the enabled job comes out of next, a finished one goes back through
// done.
type auditPlan struct {
	g                     *FedGuard
	labels                []int // conditioning labels by sample
	m, t, slab            int   // expected updates, synthetic samples, rows per slab
	hold, closed, misused bool  // hold: the barrier's, no scoring until cleared
	// errs holds slot d's decoder error at d and slot j's weights error
	// at m+j: the lowest index is the round's error whatever the order.
	errs []error

	// By decoder, which is by slot; decoder d is bound once slot d has
	// arrived without a decoder error.
	classes [][]int
	samples [][]int // sample indices by block; nil until assigned
	claimed []bool
	rows    []int // sample index by row, in the order blocks completed

	// By slot.
	arrived []bool
	scored  []int // rows claimed by the slot's scoring jobs
	hits    []int // summed argmax hits
}

// newAuditPlan begins the plan for m updates over labels' samples.
func newAuditPlan(g *FedGuard, labels []int, m int, hold bool) auditPlan {
	t := len(labels)
	p := auditPlan{g: g, labels: labels, m: m, t: t, slab: (t + scorePasses - 1) / scorePasses, hold: hold,
		errs: make([]error, 2*m), classes: make([][]int, m), claimed: make([]bool, m),
		rows: make([]int, 0, t), arrived: make([]bool, m), scored: make([]int, m), hits: make([]int, m)}
	p.assign()
	return p
}

// assign partitions the samples over the decoders as soon as that can be
// done: at once when round-robin, once every slot has brought its class
// list when class-routed.
func (p *auditPlan) assign() {
	if p.samples != nil || (p.g.UseDecoderClasses && slices.Contains(p.arrived, false)) {
		return
	}
	p.samples = make([][]int, p.m)
	for i, d := range p.g.assignSamples(p.labels, p.m, p.classes) {
		p.samples[d] = append(p.samples[d], i)
	}
}

// submit records slot's arrival, its decoder's class list and error,
// and reports whether it was taken: a slot out of range or submitted
// twice marks the plan misused instead; a closed plan takes nothing.
func (p *auditPlan) submit(slot int, classes []int, err error) bool {
	if p.closed || slot < 0 || slot >= p.m || p.arrived[slot] {
		p.misused = p.misused || !p.closed
		return false
	}
	p.arrived[slot] = true
	p.classes[slot], p.errs[slot] = classes, err
	p.assign()
	return true
}

// enabled returns the job to run next without handing it out: the
// lowest block whose decoder is bound and whose samples are assigned,
// else the lowest arrived slot with enough ready rows it has not seen —
// a slab, or whatever is left of a complete set. Empty blocks (t < m)
// have nothing to synthesize; their decoders are validated all the same.
func (p *auditPlan) enabled() (job, bool) {
	if p.closed {
		return job{}, false
	}
	for d, idxs := range p.samples {
		if len(idxs) > 0 && !p.claimed[d] && p.arrived[d] && p.errs[d] == nil {
			return job{block: d, slot: -1}, true
		}
	}
	ready := len(p.rows)
	for j, n := range p.scored {
		if !p.hold && p.arrived[j] && n < ready && (ready == p.t || ready-n >= p.slab) {
			return job{block: -1, slot: j, lo: n, hi: ready}, true
		}
	}
	return job{}, false
}

// next hands out the enabled job, if any.
func (p *auditPlan) next() (job, bool) {
	j, ok := p.enabled()
	if ok && j.block >= 0 {
		p.claimed[j.block] = true
	} else if ok {
		p.scored[j.slot] = j.hi
	}
	return j, ok
}

// done takes a finished job back: a block's rows join the set, a
// scoring job's hits its slot's; a scoring error ends the slot's
// scoring, since no further job can do better.
func (p *auditPlan) done(j job, hits int, err error) {
	if j.block >= 0 {
		p.rows = append(p.rows, p.samples[j.block]...)
		return
	}
	p.hits[j.slot] += hits
	if err != nil {
		p.errs[p.m+j.slot] = err
		p.scored[j.slot] = p.t
	}
}

// AuditStream is one round's audit plan and FedGuard's fl.RoundStream:
// the pool that runs the plan's jobs. A FedGuard instance runs at most
// one at a time (it borrows the shared audit models).
type AuditStream struct {
	g              *FedGuard
	z              *tensor.Tensor // latents by sample, (t, Latent)
	mu             sync.Mutex
	cond           *sync.Cond
	wg             sync.WaitGroup
	plan           auditPlan
	inflight, jobs int // jobs: finished
	busy           time.Duration
	decoders       []*cvae.Decoder // by slot
	updates        []fl.Update     // by slot
	// The synthetic set: rows [0, len(plan.rows)) of x are ready, rowLabel
	// their labels. Ready rows are never written again and rowLabel never
	// reallocates, so jobs read them unlocked.
	x        *tensor.Tensor // (t, 1, H, W)
	rowLabel []int
}

var _ fl.StreamingStrategy = (*FedGuard)(nil)

// BeginRound implements fl.StreamingStrategy. It returns nil for an
// empty round and for a mis-shaped CVAE config, which Aggregate reports
// as the usual error.
func (g *FedGuard) BeginRound(ctx *fl.RoundContext, m int) fl.RoundStream {
	if s, err := g.begin(ctx, m, false); err == nil {
		return s
	}
	return nil
}

// begin draws the plan for m updates and starts its workers.
func (g *FedGuard) begin(ctx *fl.RoundContext, m int, hold bool) (*AuditStream, error) {
	if g.CVAECfg.Input != dataset.ImageH*dataset.ImageW {
		return nil, fmt.Errorf("defense: CVAE input %d does not match %dx%d images",
			g.CVAECfg.Input, dataset.ImageH, dataset.ImageW)
	}
	if m <= 0 {
		return nil, aggregate.ErrNoUpdates
	}
	z, labels := g.drawPlan(ctx.RNG.Clone(), m)
	s := &AuditStream{g: g, z: z, plan: newAuditPlan(g, labels, m, hold),
		decoders: make([]*cvae.Decoder, m), updates: make([]fl.Update, m),
		x: tensor.New(len(labels), 1, dataset.ImageH, dataset.ImageW), rowLabel: make([]int, 0, len(labels))}
	s.cond = sync.NewCond(&s.mu)
	w := min(tensor.Workers(), m) // the pool's width, capped by the updates
	for len(g.auditModels) < w {
		g.auditModels = append(g.auditModels, g.Arch(newInitRNG()))
	}
	s.wg.Add(w)
	for _, model := range g.auditModels[:w] {
		go s.worker(model)
	}
	return s, nil
}

// Submit implements fl.RoundStream. The slot's decoder payload is
// validated and bound to a view here, outside the lock (it costs a
// length check, missing payloads included; it is neither copied nor
// written).
func (s *AuditStream) Submit(slot int, u fl.Update) {
	dec, err := cvae.NewDecoder(s.g.CVAECfg, u.Decoder)
	if err != nil {
		err = fmt.Errorf("defense: client %d: %w", u.ClientID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plan.submit(slot, u.DecoderClasses, err) {
		s.updates[slot], s.decoders[slot] = u, dec
		s.cond.Broadcast()
	}
}

// worker runs the plan's jobs until it closes. Each worker owns one
// audit model.
func (s *AuditStream) worker(model *nn.Sequential) {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.plan.closed {
		j, ok := s.plan.next()
		if !ok {
			s.cond.Wait()
			continue
		}
		s.inflight++
		start := time.Now()
		if j.block >= 0 {
			s.synthesize(j)
		} else {
			s.score(model, j)
		}
		s.busy += time.Since(start)
		s.jobs++
		s.inflight--
		s.cond.Broadcast()
	}
}

// synthesize generates job j's block from its gathered latents and
// labels and writes its rows after the ready ones. Called with s.mu
// held; the lock is released around the compute.
func (s *AuditStream) synthesize(j job) {
	s.mu.Unlock()
	idxs := s.plan.samples[j.block]
	lat := s.g.CVAECfg.Latent
	zd := tensor.New(len(idxs), lat)
	ld := make([]int, len(idxs))
	for k, i := range idxs {
		copy(zd.Data[k*lat:(k+1)*lat], s.z.Data[i*lat:(i+1)*lat])
		ld[k] = s.plan.labels[i]
	}
	// The images are the decoder's scratch; each decoder generates once.
	imgs := s.decoders[j.block].Generate(zd, ld)
	s.mu.Lock()
	copy(s.x.Data[len(s.rowLabel)*s.g.CVAECfg.Input:], imgs.Data)
	s.rowLabel = append(s.rowLabel, ld...)
	s.plan.done(j, 0, nil)
}

// score runs job j's update over its rows, a slab at a time. Called
// with s.mu held; the lock is released around the compute.
func (s *AuditStream) score(model *nn.Sequential, j job) {
	rowLabel := s.rowLabel[j.lo:j.hi]
	s.mu.Unlock()
	size, hits := s.g.CVAECfg.Input, 0
	err := model.LoadParams(s.updates[j.slot].Weights)
	for at := j.lo; err == nil && at < j.hi; at += s.plan.slab {
		end := min(at+s.plan.slab, j.hi)
		rows := tensor.FromSlice(s.x.Data[at*size:end*size], end-at, 1, dataset.ImageH, dataset.ImageW)
		hits += classifier.CountCorrectTensor(model, rows, rowLabel[at-j.lo:end-j.lo])
	}
	if err != nil {
		err = fmt.Errorf("defense: audit client %d: %w", s.updates[j.slot].ClientID, err)
	}
	s.mu.Lock()
	s.plan.done(j, hits, err)
}

// drain sets whether scoring is held, waits until no job is running or
// enabled and returns the round's error: the lowest-index one.
func (s *AuditStream) drain(hold bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plan.hold = hold
	s.cond.Broadcast()
	for !s.plan.closed {
		if _, ok := s.plan.enabled(); !ok && s.inflight == 0 {
			break
		}
		s.cond.Wait()
	}
	for _, err := range s.plan.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// scores releases held scoring, waits the plan out and returns every
// update's accuracy on the synthetic set: integer hits over the set
// size, the division classifier.Evaluate performs.
func (s *AuditStream) scores() ([]float64, error) {
	err := s.drain(false)
	s.Abort()
	if err != nil {
		return nil, err
	}
	accs := make([]float64, s.plan.m)
	for j, h := range s.plan.hits {
		accs[j] = float64(h) / float64(s.plan.t)
	}
	return accs, nil
}

// Finalize implements fl.RoundStream. ctx must carry the round's
// assembled Updates in slot order. If they are not what was streamed
// (drop-outs, re-ordered slots, a slot submitted twice) the round is the
// same plan begun again on the delivered updates: ctx.RNG was never
// advanced, so Aggregate draws what this stream drew.
func (s *AuditStream) Finalize(ctx *fl.RoundContext) ([]float32, error) {
	if !s.delivered(ctx.Updates) {
		s.Abort()
		return s.g.Aggregate(ctx)
	}
	accs, err := s.scores()
	if err != nil {
		return nil, err
	}
	return s.g.finalizeScores(ctx, accs)
}

// delivered reports whether updates are exactly the submitted slots.
func (s *AuditStream) delivered(updates []fl.Update) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plan.misused || len(updates) != s.plan.m {
		return false
	}
	for slot, u := range updates {
		if !s.plan.arrived[slot] || s.updates[slot].ClientID != u.ClientID {
			return false
		}
	}
	return true
}

// Abort implements fl.RoundStream: it closes the plan and blocks until
// the workers exit, dropping whatever was not yet run. A finished plan
// releases its workers the same way.
func (s *AuditStream) Abort() {
	s.mu.Lock()
	s.plan.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Overlap implements fl.RoundStream: total busy time across workers and
// jobs completed so far. Sampled at barrier entry it measures how much
// audit compute hid inside the upload phase.
func (s *AuditStream) Overlap() (time.Duration, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy, s.jobs
}

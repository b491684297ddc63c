package defense

import (
	"fmt"
	"sync"
	"time"

	"fedguard/internal/aggregate"
	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/fl"
	"fedguard/internal/nn"
	"fedguard/internal/tensor"
)

// The audit plan is FedGuard's one implementation of Alg. 1 lines 1–5;
// the barrier audit (Aggregate) and the streaming audit (BeginRound,
// Submit, Finalize) are two arrival schedules of it. The whole round is
// fixed the moment the participant count m is known: every RNG draw
// (latents, labels) happens up front, on a clone of the round RNG so
// that the original stays pristine for a plan re-begun on the delivered
// updates. Work then unlocks as updates arrive. Slot d's
// arrival binds decoder d; once the samples are partitioned over the
// decoders — at once when round-robin, at the last arrival when
// class-routed, which needs every decoder's class list — a bound
// decoder's block can be synthesized, and its rows join the set in
// the order blocks complete. An arrived update is scored against every
// row that is ready and that it has not yet seen, in one job and one
// LoadParams, but only once a slab of rows — a quarter of the set — is
// waiting for it or the set is complete: at most scorePasses jobs per
// update however many decoders there are. A row's pixels depend only on
// its own (z, y) and decoder, the forward pass is per-row, and hits are
// summed as integers, so the accuracies — and therefore the filtered
// aggregate — are byte-identical at any worker count, arrival order and
// schedule.

// scorePasses is how many slabs the synthetic set is scored in: a slab
// is ⌈t/scorePasses⌉ rows. It bounds both the scoring jobs one update
// can take on the stream schedule and the batch an audit model ever
// sees, so a model's pooled-activation and dense-layer buffers — all of
// its scratch that grows with the batch — are sized once by its first
// slab rather than regrown for every larger backlog (tensor.Ensure
// grows exactly). Scoring costs the same per row at any batch size, so
// the slab is not a tuning knob.
const scorePasses = 4

// AuditStream is one round's audit plan and FedGuard's fl.RoundStream.
// A FedGuard instance runs at most one at a time (it borrows the shared
// audit models).
type AuditStream struct {
	g    *FedGuard
	m, t int // expected updates, synthetic samples
	slab int // rows per forward pass

	// The drawn plan, read-only once begin returns.
	z      *tensor.Tensor // latents by sample, (t, Latent)
	labels []int          // conditioning labels by sample

	mu       sync.Mutex
	cond     *sync.Cond
	wg       sync.WaitGroup
	hold     bool // barrier schedule: no scoring until scores releases it
	closed   bool
	misused  bool // a slot out of range or submitted twice
	inflight int
	busy     time.Duration
	// synthJobs and scoreJobs count finished jobs. A scoring job is one
	// LoadParams.
	synthJobs, scoreJobs int
	// errs holds slot d's decoder error at d and slot j's weights error
	// at m+j: the lowest index is the round's error whatever the arrival
	// order.
	errs []error

	// By decoder, which is by slot.
	unbound  int // slots not yet submitted
	decoders []*cvae.Decoder
	classes  [][]int
	samples  [][]int // sample indices the block is yet to generate; nil until assigned

	// The synthetic set, rows in the order blocks completed.
	x         *tensor.Tensor // (t, 1, H, W); rows [0, len(rowLabel)) are ready
	rowLabel  []int
	rowSample []int

	// By slot.
	arrived []bool
	updates []fl.Update
	scored  []int // rows claimed by the slot's scoring jobs
	hits    []int // summed argmax hits
}

var _ fl.StreamingStrategy = (*FedGuard)(nil)

// BeginRound implements fl.StreamingStrategy. It returns nil for an
// empty round and for a mis-shaped CVAE config, which Aggregate reports
// as the usual error.
func (g *FedGuard) BeginRound(ctx *fl.RoundContext, m int) fl.RoundStream {
	s, err := g.begin(ctx, m, false)
	if err != nil {
		return nil
	}
	return s
}

// begin draws the plan for m updates and starts its workers.
func (g *FedGuard) begin(ctx *fl.RoundContext, m int, hold bool) (*AuditStream, error) {
	if g.CVAECfg.Input != g.ImageH*g.ImageW {
		return nil, fmt.Errorf("defense: CVAE input %d does not match %dx%d images",
			g.CVAECfg.Input, g.ImageH, g.ImageW)
	}
	if m <= 0 {
		return nil, aggregate.ErrNoUpdates
	}
	z, labels := g.drawPlan(ctx.RNG.Clone(), m)
	t := len(labels)
	s := &AuditStream{
		g: g, m: m, t: t, slab: (t + scorePasses - 1) / scorePasses,
		z: z, labels: labels,
		hold:      hold,
		errs:      make([]error, 2*m),
		unbound:   m,
		decoders:  make([]*cvae.Decoder, m),
		classes:   make([][]int, m),
		x:         tensor.New(t, 1, g.ImageH, g.ImageW),
		rowLabel:  make([]int, 0, t),
		rowSample: make([]int, 0, t),
		arrived:   make([]bool, m),
		updates:   make([]fl.Update, m),
		scored:    make([]int, m),
		hits:      make([]int, m),
	}
	s.cond = sync.NewCond(&s.mu)
	s.assign()
	w := g.workers(m)
	for len(g.auditModels) < w {
		g.auditModels = append(g.auditModels, g.Arch(newInitRNG()))
	}
	s.wg.Add(w)
	for _, model := range g.auditModels[:w] {
		go s.worker(model)
	}
	return s, nil
}

// assign partitions the samples over the decoders as soon as that can be
// done: at begin when round-robin, once every slot has brought its class
// list when class-routed. Callers hold s.mu (or are begin).
func (s *AuditStream) assign() {
	if s.samples != nil || (s.g.UseDecoderClasses && s.unbound > 0) {
		return
	}
	nd := len(s.decoders)
	s.samples = make([][]int, nd)
	for i, d := range s.g.assignSamples(s.labels, nd, s.classes) {
		s.samples[d] = append(s.samples[d], i)
	}
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
	if s.closed {
		return
	}
	if slot < 0 || slot >= s.m || s.arrived[slot] {
		s.misused = true
		return
	}
	s.arrived[slot] = true
	s.updates[slot] = u
	s.decoders[slot], s.classes[slot], s.errs[slot] = dec, u.DecoderClasses, err
	s.unbound--
	s.assign()
	s.cond.Broadcast()
}

// synthesizable returns a block whose decoder is bound and whose samples
// are assigned but not yet generated, or -1. Empty blocks (t < m) have
// nothing to synthesize; their decoders are validated all the same.
func (s *AuditStream) synthesizable() int {
	for d, idxs := range s.samples {
		if len(idxs) > 0 && s.decoders[d] != nil {
			return d
		}
	}
	return -1
}

// scorable returns an arrived slot with enough ready rows it has not
// seen — a slab, or whatever is left of a complete set — or -1.
func (s *AuditStream) scorable() int {
	ready := len(s.rowLabel)
	if s.hold {
		return -1
	}
	for j, n := range s.scored {
		if s.arrived[j] && n < ready && (ready == s.t || ready-n >= s.slab) {
			return j
		}
	}
	return -1
}

// worker runs jobs until the plan closes, synthesis before scoring. Each
// worker owns one audit model.
func (s *AuditStream) worker(model *nn.Sequential) {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		d, j := s.synthesizable(), -1
		if d < 0 {
			if j = s.scorable(); j < 0 {
				s.cond.Wait()
				continue
			}
		}
		s.inflight++
		start := time.Now()
		if d >= 0 {
			s.synthesize(d)
		} else {
			s.score(model, j)
		}
		s.busy += time.Since(start)
		s.inflight--
		s.cond.Broadcast()
	}
}

// synthesize generates block d from its gathered latents and labels and
// appends the rows to the set. Called with s.mu held; the lock is
// released around the compute.
func (s *AuditStream) synthesize(d int) {
	idxs := s.samples[d]
	s.samples[d] = nil // claimed
	s.mu.Unlock()
	lat := s.g.CVAECfg.Latent
	zd := tensor.New(len(idxs), lat)
	ld := make([]int, len(idxs))
	for k, i := range idxs {
		copy(zd.Data[k*lat:(k+1)*lat], s.z.Data[i*lat:(i+1)*lat])
		ld[k] = s.labels[i]
	}
	// The images are the decoder's scratch; each decoder generates once.
	imgs := s.decoders[d].Generate(zd, ld)
	s.mu.Lock()
	copy(s.x.Data[len(s.rowLabel)*s.g.CVAECfg.Input:], imgs.Data)
	s.rowLabel = append(s.rowLabel, ld...)
	s.rowSample = append(s.rowSample, idxs...)
	s.synthJobs++
}

// score runs slot j's update over every ready row it has not seen, a
// slab at a time. Called with s.mu held; the lock is released around the
// compute. Rows below len(s.rowLabel) are never written again and
// rowLabel never reallocates, so the job reads them unlocked.
func (s *AuditStream) score(model *nn.Sequential, j int) {
	lo, hi := s.scored[j], len(s.rowLabel)
	s.scored[j] = hi
	rowLabel := s.rowLabel[lo:hi]
	s.mu.Unlock()
	size := s.g.CVAECfg.Input
	hits := 0
	err := model.LoadParams(s.updates[j].Weights)
	for at := lo; err == nil && at < hi; at += s.slab {
		end := min(at+s.slab, hi)
		rows := tensor.FromSlice(s.x.Data[at*size:end*size], end-at, 1, s.g.ImageH, s.g.ImageW)
		hits += classifier.CountCorrectTensor(model, rows, rowLabel[at-lo:end-lo])
	}
	s.mu.Lock()
	s.scoreJobs++
	s.hits[j] += hits
	if err != nil {
		s.errs[s.m+j] = fmt.Errorf("defense: audit client %d: %w", s.updates[j].ClientID, err)
		s.scored[j] = s.t // no further job can do better
	}
}

// drain waits until no job is running or runnable and returns the
// round's error, if any.
func (s *AuditStream) drain() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && (s.inflight > 0 || s.synthesizable() >= 0 || s.scorable() >= 0) {
		s.cond.Wait()
	}
	for _, err := range s.errs {
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
	s.mu.Lock()
	s.hold = false
	s.cond.Broadcast()
	s.mu.Unlock()
	err := s.drain()
	s.Abort()
	if err != nil {
		return nil, err
	}
	accs := make([]float64, s.m)
	for j, h := range s.hits {
		accs[j] = float64(h) / float64(s.t)
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
	if s.misused || len(updates) != s.m {
		return false
	}
	for slot, u := range updates {
		if !s.arrived[slot] || s.updates[slot].ClientID != u.ClientID {
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
	s.closed = true
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
	return s.busy, s.synthJobs + s.scoreJobs
}

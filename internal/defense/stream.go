package defense

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/fl"
	"fedguard/internal/nn"
	"fedguard/internal/tensor"
)

// The streaming audit runs FedGuard's per-round compute while uploads
// are still in flight. The whole round plan is fixed the moment the
// participant count m is known: every RNG draw (decoder subset, latents,
// labels) happens up front in Synthesize's exact order — on a clone of
// the round RNG, so the original stays pristine for a batch fallback —
// and the synthetic set is partitioned into per-decoder blocks by the
// same round-robin assignment the batch path uses. Work then unlocks
// incrementally: a client's arrival enables its decoder's synthesis job,
// and a scoring job (update j × block d) as soon as both j's weights and
// block d's images exist. Because block images are bit-identical to the
// batch path's rows and scoring sums integer argmax counts, the final
// accuracies — and therefore the filtered aggregate — are byte-identical
// to Aggregate at any worker count and any arrival order.

var errStreamAborted = errors.New("defense: audit stream aborted")

// streamJob is one unit of audit work: synthesis of one decoder's block
// (slot < 0) or scoring one arrived update on one synthesized block.
type streamJob struct {
	slot  int // update slot to score, or -1 for synthesis
	block int // decoder/block index
}

// AuditStream is FedGuard's fl.RoundStream: the in-flight state of one
// streaming round. Create it with FedGuard.BeginRound; a FedGuard
// instance runs at most one stream at a time (it borrows the shared
// audit models).
type AuditStream struct {
	g *FedGuard
	m int // expected updates
	t int // synthetic samples

	// Pre-drawn randomness and the derived static plan.
	z       *tensor.Tensor
	labels  []int
	slotDec map[int]int // slot -> block index (slots contributing decoders)
	perDec  [][]int     // block -> sample indices (round-robin)

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []streamJob
	inflight int
	closed   bool
	err      error

	arrived  []bool
	clientID []int
	weights  [][]float32
	decoders []*cvae.Decoder  // by block
	synthed  []bool           // block images ready
	blockX   []*tensor.Tensor // by block, (rows, 1, H, W)
	blockLB  [][]int          // by block, gathered labels
	correct  []int64          // by slot, summed argmax hits

	busyNanos atomic.Int64
	jobsDone  atomic.Int64

	wg sync.WaitGroup
}

var _ fl.StreamingStrategy = (*FedGuard)(nil)

// BeginRound implements fl.StreamingStrategy. It returns nil when the
// round cannot be streamed: class-routed synthesis (§VI-B) needs every
// update's DecoderClasses, which only exist after the barrier, and a
// mis-shaped CVAE config is left for the batch path to surface as the
// usual error.
func (g *FedGuard) BeginRound(ctx *fl.RoundContext, m int) fl.RoundStream {
	if m <= 0 || g.UseDecoderClasses || g.CVAECfg.Input != g.ImageH*g.ImageW {
		return nil
	}
	// Replicate Synthesize's draw order exactly on a clone: decoder
	// subset first, then latents, then labels. ctx.RNG itself must not
	// advance — Finalize may fall back to Aggregate, which redraws.
	r := ctx.RNG.Clone()
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	if g.MaxDecoders > 0 && g.MaxDecoders < m {
		order = r.Sample(m, g.MaxDecoders)
	}
	t := g.Samples
	if t <= 0 {
		t = 2 * m
	}
	z := tensor.New(t, g.CVAECfg.Latent)
	r.FillNormal(z.Data, 0, 1)
	labels := make([]int, t)
	for i := range labels {
		if g.ClassProbs != nil {
			labels[i] = r.Categorical(g.ClassProbs)
		} else {
			labels[i] = r.CategoricalUniform(g.CVAECfg.Classes)
		}
	}
	nd := len(order)
	perDec := make([][]int, nd)
	for i := 0; i < t; i++ {
		perDec[i%nd] = append(perDec[i%nd], i)
	}
	slotDec := make(map[int]int, nd)
	for d, slot := range order {
		slotDec[slot] = d
	}

	s := &AuditStream{
		g:        g,
		m:        m,
		t:        t,
		z:        z,
		labels:   labels,
		slotDec:  slotDec,
		perDec:   perDec,
		arrived:  make([]bool, m),
		clientID: make([]int, m),
		weights:  make([][]float32, m),
		decoders: make([]*cvae.Decoder, nd),
		synthed:  make([]bool, nd),
		blockX:   make([]*tensor.Tensor, nd),
		blockLB:  make([][]int, nd),
		correct:  make([]int64, m),
	}
	s.cond = sync.NewCond(&s.mu)
	// Empty blocks (t < nd) have nothing to synthesize or score; their
	// decoders are still validated on arrival so error behavior matches
	// the batch path.
	for d, idxs := range perDec {
		if len(idxs) == 0 {
			s.synthed[d] = true
		}
	}
	w := g.workers(m)
	for len(g.auditModels) < w {
		g.auditModels = append(g.auditModels, g.Arch(newInitRNG()))
	}
	for wk := 0; wk < w; wk++ {
		s.wg.Add(1)
		go s.worker(g.auditModels[wk])
	}
	return s
}

// Submit implements fl.RoundStream. The decoder payload is validated and
// bound to a view here, outside the lock (it costs a length check; the
// payload is neither copied nor written); any validation error is
// recorded and later routed through the batch fallback, which
// reproduces the identical error serially.
func (s *AuditStream) Submit(slot int, u fl.Update) {
	var dec *cvae.Decoder
	var decErr error
	if slot >= 0 && slot < s.m {
		if _, hasDec := s.slotDec[slot]; hasDec {
			if u.Decoder == nil {
				decErr = fmt.Errorf("defense: client %d sent no decoder payload", u.ClientID)
			} else if dec, decErr = cvae.NewDecoder(s.g.CVAECfg, u.Decoder); decErr != nil {
				decErr = fmt.Errorf("defense: client %d: %w", u.ClientID, decErr)
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return
	case slot < 0 || slot >= s.m:
		s.fail(fmt.Errorf("defense: stream slot %d outside [0,%d)", slot, s.m))
		return
	case s.arrived[slot]:
		s.fail(fmt.Errorf("defense: stream slot %d submitted twice", slot))
		return
	}
	s.arrived[slot] = true
	s.clientID[slot] = u.ClientID
	s.weights[slot] = u.Weights
	if decErr != nil {
		s.fail(decErr)
		return
	}
	if d, hasDec := s.slotDec[slot]; hasDec {
		s.decoders[d] = dec
		if len(s.perDec[d]) > 0 {
			s.enqueueLocked(streamJob{slot: -1, block: d})
		}
	}
	for d := range s.synthed {
		if s.synthed[d] && len(s.perDec[d]) > 0 {
			s.enqueueLocked(streamJob{slot: slot, block: d})
		}
	}
}

// fail records the stream's first error; the round then finishes via the
// batch fallback. Callers hold s.mu.
func (s *AuditStream) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
}

func (s *AuditStream) enqueueLocked(j streamJob) {
	s.queue = append(s.queue, j)
	s.cond.Broadcast()
}

// worker drains jobs until the stream closes. Each worker owns one audit
// model and remembers which update is loaded in it, preferring queued
// scoring jobs for that update to skip redundant LoadParams calls.
func (s *AuditStream) worker(model *nn.Sequential) {
	defer s.wg.Done()
	loaded := -1
	s.mu.Lock()
	for {
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		if s.err != nil {
			// The round is already bound for the batch fallback; drop the
			// remaining work.
			s.queue = s.queue[:0]
			s.cond.Broadcast()
			continue
		}
		pick := 0
		if loaded >= 0 {
			for i, j := range s.queue {
				if j.slot == loaded {
					pick = i
					break
				}
			}
		}
		job := s.queue[pick]
		s.queue = append(s.queue[:pick], s.queue[pick+1:]...)
		s.inflight++
		s.mu.Unlock()

		start := time.Now()
		var count int
		var err error
		if job.slot < 0 {
			s.runSynth(job.block)
		} else {
			count, err = s.runScore(model, &loaded, job)
		}
		s.busyNanos.Add(time.Since(start).Nanoseconds())
		s.jobsDone.Add(1)

		s.mu.Lock()
		s.inflight--
		switch {
		case err != nil:
			s.fail(err)
		case job.slot >= 0:
			s.correct[job.slot] += int64(count)
		default:
			s.synthed[job.block] = true
			for slot, ok := range s.arrived {
				if ok {
					s.enqueueLocked(streamJob{slot: slot, block: job.block})
				}
			}
		}
		if s.inflight == 0 && len(s.queue) == 0 {
			s.cond.Broadcast() // wake a draining Finalize/Abort
		}
	}
}

// runSynth generates block d's synthetic images: the same gathered
// latents and labels the batch Synthesize hands this decoder, so the
// rows are bit-identical to the batch path's.
func (s *AuditStream) runSynth(d int) {
	idxs := s.perDec[d]
	lat := s.g.CVAECfg.Latent
	zd := tensor.New(len(idxs), lat)
	ld := make([]int, len(idxs))
	for k, i := range idxs {
		copy(zd.Data[k*lat:(k+1)*lat], s.z.Data[i*lat:(i+1)*lat])
		ld[k] = s.labels[i]
	}
	imgs := s.decoders[d].Generate(zd, ld)
	xd := tensor.New(len(idxs), 1, s.g.ImageH, s.g.ImageW)
	copy(xd.Data, imgs.Data)
	s.blockX[d] = xd
	s.blockLB[d] = ld
}

func (s *AuditStream) runScore(model *nn.Sequential, loaded *int, job streamJob) (int, error) {
	if *loaded != job.slot {
		if err := model.LoadParams(s.weights[job.slot]); err != nil {
			*loaded = -1
			return 0, fmt.Errorf("defense: audit client %d: %w", s.clientID[job.slot], err)
		}
		*loaded = job.slot
	}
	return classifier.CountCorrectTensor(model, s.blockX[job.block], s.blockLB[job.block]), nil
}

// drainAndStop waits for queued and in-flight work, then shuts the
// worker pool down.
func (s *AuditStream) drainAndStop() {
	s.mu.Lock()
	for s.err == nil && (s.inflight > 0 || len(s.queue) > 0) {
		s.cond.Wait()
	}
	s.closed = true
	s.queue = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Finalize implements fl.RoundStream. ctx must carry the round's
// assembled Updates in slot order; any divergence from what was streamed
// (drop-outs, re-ordered slots, duplicate submissions, job errors) routes
// the round through the batch Aggregate — ctx.RNG was never advanced, so
// that fallback is the exact serial computation.
func (s *AuditStream) Finalize(ctx *fl.RoundContext) ([]float32, error) {
	s.drainAndStop()
	ok := s.err == nil && len(ctx.Updates) == s.m
	if ok {
		for i, u := range ctx.Updates {
			if !s.arrived[i] || s.clientID[i] != u.ClientID {
				ok = false
				break
			}
		}
	}
	if !ok {
		return s.g.Aggregate(ctx)
	}
	accs := make([]float64, s.m)
	for i := range accs {
		// Same division EvaluateTensor performs: integer hits over the
		// full synthetic-set size.
		accs[i] = float64(s.correct[i]) / float64(s.t)
	}
	return s.g.finalizeScores(ctx, accs)
}

// Abort implements fl.RoundStream.
func (s *AuditStream) Abort() {
	s.mu.Lock()
	s.fail(errStreamAborted)
	s.closed = true
	s.queue = nil
	s.mu.Unlock()
	s.wg.Wait()
}

// Overlap implements fl.RoundStream: total busy time across workers and
// jobs completed so far. Sampled at barrier entry it measures how much
// audit compute hid inside the upload phase.
func (s *AuditStream) Overlap() (time.Duration, int) {
	return time.Duration(s.busyNanos.Load()), int(s.jobsDone.Load())
}

package fl

import (
	"sort"
	"sync"
	"testing"

	"fedguard/internal/attack"
	"fedguard/internal/dataset"
	"fedguard/internal/rng"
)

// spyModelAttack is a plain (non-GlobalAware) attack that records what
// the client hands its PoisonModel hook.
type spyModelAttack struct {
	mu    sync.Mutex
	calls int
	seen  []float32
}

func (s *spyModelAttack) Name() string { return "spy" }
func (s *spyModelAttack) PoisonData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int) {
	return ds, indices
}
func (s *spyModelAttack) PoisonModel(w []float32, r *rng.RNG) {
	s.mu.Lock()
	s.calls++
	s.seen = append([]float32(nil), w...)
	s.mu.Unlock()
}

// spyGlobalAttack additionally implements GlobalAware and records which
// of the two hooks fired.
type spyGlobalAttack struct {
	spyModelAttack
	withGlobalCalls int
	global          []float32
}

func (s *spyGlobalAttack) PoisonModelWithGlobal(w, global []float32, r *rng.RNG) {
	s.mu.Lock()
	s.withGlobalCalls++
	s.global = append([]float32(nil), global...)
	s.mu.Unlock()
}

// TestClientScaledBoostUploadEquality pins the GlobalAware arithmetic:
// the boosted upload is exactly global + λ·(trained − global), verified
// against a benign client on the identical RNG stream.
func TestClientScaledBoostUploadEquality(t *testing.T) {
	d := dataset.Generate(30, dataset.DefaultGenOptions(), rng.New(40))
	cfg := tinyClientConfig()
	global := cfg.Arch(rng.New(7)).FlattenParams()
	const lambda = 10

	benign := NewClient(0, d, dataset.Range(30), cfg, nil, rng.New(3))
	boosted := NewClient(0, d, dataset.Range(30), cfg, attack.NewScaledBoost(lambda), rng.New(3))
	ub := benign.RunRound(global, false)
	um := boosted.RunRound(global, false)
	for i := range ub.Weights {
		want := global[i] + lambda*(ub.Weights[i]-global[i])
		if diff := want - um.Weights[i]; diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("weight %d = %v, want %v", i, um.Weights[i], want)
		}
	}
}

// TestClientAttackHookDispatch pins which poison hook a client invokes:
// a GlobalAware attack gets PoisonModelWithGlobal with the round's exact
// starting global (and its plain hook stays cold); a non-GlobalAware
// attack gets PoisonModel with the trained weights and never sees the
// global at all.
func TestClientAttackHookDispatch(t *testing.T) {
	d := dataset.Generate(30, dataset.DefaultGenOptions(), rng.New(41))
	cfg := tinyClientConfig()
	global := cfg.Arch(rng.New(7)).FlattenParams()

	plain := &spyModelAttack{}
	NewClient(0, d, dataset.Range(30), cfg, plain, rng.New(3)).RunRound(global, false)
	if plain.calls != 1 {
		t.Fatalf("PoisonModel called %d times, want 1", plain.calls)
	}
	// The hook sees the *trained* weights, not the global: training must
	// have moved them.
	diff := 0
	for i := range global {
		if plain.seen[i] != global[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("non-GlobalAware hook received the unchanged global")
	}

	aware := &spyGlobalAttack{}
	NewClient(0, d, dataset.Range(30), cfg, aware, rng.New(3)).RunRound(global, false)
	if aware.withGlobalCalls != 1 {
		t.Fatalf("PoisonModelWithGlobal called %d times, want 1", aware.withGlobalCalls)
	}
	if aware.calls != 0 {
		t.Fatal("GlobalAware attack also got the plain PoisonModel hook")
	}
	for i := range global {
		if aware.global[i] != global[i] {
			t.Fatal("GlobalAware hook received a global differing from the round's")
		}
	}
}

// cohortSpy is a CohortAware attack that stamps every colluder draft
// with a sentinel value and records the cohort IDs it was shown. It is
// AGRTailored too, and records the strategy it was pointed at.
type cohortSpy struct {
	sentinel   float32
	tailoredTo string

	mu      sync.Mutex
	cohorts [][]int
}

func (s *cohortSpy) Name() string             { return "cohort-spy" }
func (s *cohortSpy) TailorTo(strategy string) { s.tailoredTo = strategy }
func (s *cohortSpy) PoisonData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int) {
	return ds, indices
}
func (s *cohortSpy) PoisonModel(w []float32, r *rng.RNG) {}
func (s *cohortSpy) PoisonCohort(drafts [][]float32, ids []int, r *rng.RNG) {
	s.mu.Lock()
	s.cohorts = append(s.cohorts, append([]int(nil), ids...))
	s.mu.Unlock()
	for _, d := range drafts {
		for i := range d {
			d[i] = s.sentinel
		}
	}
}

// cohortChecker is a strategy that verifies, inside the round, that
// malicious updates carry the sentinel and benign updates do not.
type cohortChecker struct {
	t         *testing.T
	malicious map[int]bool
	sentinel  float32
	rounds    int
}

func (c *cohortChecker) Name() string        { return "cohort-checker" }
func (c *cohortChecker) NeedsDecoders() bool { return false }
func (c *cohortChecker) Aggregate(ctx *RoundContext) ([]float32, error) {
	c.rounds++
	for _, u := range ctx.Updates {
		stamped := true
		for _, v := range u.Weights {
			if v != c.sentinel {
				stamped = false
				break
			}
		}
		if c.malicious[u.ClientID] && !stamped {
			c.t.Errorf("round %d: malicious client %d not rewritten by the cohort hook",
				ctx.Round, u.ClientID)
		}
		if !c.malicious[u.ClientID] && stamped {
			c.t.Errorf("round %d: benign client %d carries the cohort sentinel",
				ctx.Round, u.ClientID)
		}
	}
	return append([]float32(nil), ctx.Global...), nil
}

// TestFederationCohortAttackRewrite drives a real federation with a
// CohortAware attack and checks that exactly the sampled malicious
// drafts are rewritten at the round barrier, that the cohort hook sees
// IDs in ascending order (the determinism contract), and that the
// engine tailored the attack to the strategy it ran.
func TestFederationCohortAttackRewrite(t *testing.T) {
	train := dataset.Generate(120, dataset.DefaultGenOptions(), rng.New(50))
	test := dataset.Generate(30, dataset.DefaultGenOptions(), rng.New(51))
	spy := &cohortSpy{sentinel: 42}
	cfg := tinyFederationConfig()
	cfg.MaliciousFraction = 0.5
	cfg.Attack = spy
	fed, err := NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := &cohortChecker{t: t, malicious: fed.MaliciousIDs, sentinel: 42}
	if _, err := fed.Run(check, nil); err != nil {
		t.Fatal(err)
	}
	if check.rounds != cfg.Rounds {
		t.Fatalf("strategy saw %d rounds, want %d", check.rounds, cfg.Rounds)
	}
	if spy.tailoredTo != check.Name() {
		t.Fatalf("attack tailored to %q, want %q", spy.tailoredTo, check.Name())
	}
	for _, ids := range spy.cohorts {
		if !sort.IntsAreSorted(ids) {
			t.Fatalf("cohort IDs not ascending: %v", ids)
		}
		for _, id := range ids {
			if !fed.MaliciousIDs[id] {
				t.Fatalf("benign client %d shown to the cohort hook", id)
			}
		}
	}
}

// streamSpy is a StreamingStrategy whose BeginRound only counts calls
// (returning nil makes the server fall back to the batch path, which is
// a legal answer under the streaming contract).
type streamSpy struct {
	cohortChecker
	beginCalls int
}

func (s *streamSpy) BeginRound(ctx *RoundContext, m int) RoundStream {
	s.beginCalls++
	return nil
}

// TestStreamByDefaultGatedByCohortAttack pins when the engine streams:
// with no option set it opens a stream on every round of a streaming
// strategy, except where a CohortAware attack has sampled malicious
// clients — streamed updates would be pre-rewrite, so those rounds must
// not open one.
func TestStreamByDefaultGatedByCohortAttack(t *testing.T) {
	train := dataset.Generate(120, dataset.DefaultGenOptions(), rng.New(52))
	test := dataset.Generate(30, dataset.DefaultGenOptions(), rng.New(53))

	// Every client malicious: every round has a sampled cohort, so the
	// stream must never open.
	spy := &cohortSpy{sentinel: 7}
	cfg := tinyFederationConfig()
	cfg.MaliciousFraction = 1.0
	cfg.Attack = spy
	fed, err := NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	strat := &streamSpy{cohortChecker: cohortChecker{t: t, malicious: fed.MaliciousIDs, sentinel: 7}}
	if _, err := fed.Run(strat, nil); err != nil {
		t.Fatal(err)
	}
	if strat.beginCalls != 0 {
		t.Fatalf("stream opened %d times under a full cohort attack, want 0", strat.beginCalls)
	}

	// Benign federation: the stream opens every round.
	cfg = tinyFederationConfig()
	fed, err = NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	strat = &streamSpy{cohortChecker: cohortChecker{t: t, malicious: fed.MaliciousIDs}}
	if _, err := fed.Run(strat, nil); err != nil {
		t.Fatal(err)
	}
	if strat.beginCalls != cfg.Rounds {
		t.Fatalf("stream opened %d times benign, want %d", strat.beginCalls, cfg.Rounds)
	}
}

// TestFederationCohortDeterministicAcrossWorkers reruns a cohort-attack
// federation at different worker counts and demands byte-identical
// final weights — the CohortAware hook must not introduce
// schedule-dependent state.
func TestFederationCohortDeterministicAcrossWorkers(t *testing.T) {
	train := dataset.Generate(120, dataset.DefaultGenOptions(), rng.New(54))
	test := dataset.Generate(30, dataset.DefaultGenOptions(), rng.New(55))
	run := func(width int) []float32 {
		poolWidth(t, width)
		cfg := tinyFederationConfig()
		cfg.MaliciousFraction = 0.5
		cfg.Attack = attack.NewALIE()
		fed, err := NewFederation(train, test, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := &cohortChecker{t: t, malicious: map[int]bool{}, sentinel: -1}
		h, err := fed.Run(check, nil)
		if err != nil {
			t.Fatal(err)
		}
		return h.FinalWeights
	}
	w1, w4 := run(1), run(4)
	for i := range w1 {
		if w1[i] != w4[i] {
			t.Fatalf("weight %d differs across worker counts", i)
		}
	}
}

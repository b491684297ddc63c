package fednet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fedguard/internal/aggregate"
	"fedguard/internal/classifier"
	"fedguard/internal/codec"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/defense"
	"fedguard/internal/fl"
	"fedguard/internal/persist"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
	"fedguard/internal/wire"
)

// updateSpec is an update before it is framed: what a peer claims, in
// neither dialect.
type updateSpec struct {
	clientID         int
	samples          uint32
	weights, decoder []float32
}

// frame writes the spec in a dialect. The codec form is self-contained
// (EncCodec weights, the decoder in full), so it needs no shared state.
func (u updateSpec) frame(round uint32, enc bool) any {
	if !enc {
		return &wire.Update{Round: round, ClientID: uint32(u.clientID), NumSamples: u.samples,
			Weights: u.weights, Decoder: u.decoder}
	}
	m := &wire.UpdateC{Round: round, ClientID: uint32(u.clientID), NumSamples: u.samples,
		Encoding: wire.EncCodec, NumParams: uint32(len(u.weights)), Weights: codec.Encode(u.weights)}
	if len(u.decoder) > 0 {
		m.DecoderHash = codec.Hash(u.decoder)
		m.NumDecoderParams = uint32(len(u.decoder))
		m.Decoder = codec.Encode(u.decoder)
	}
	return m
}

// hostileFrames is the one list of frames the update edge must refuse.
// Each entry bends an honest update (own ID, model-sized weights, and a
// right-sized decoder when the round asks for one) in one way.
var hostileFrames = []struct {
	name        string
	needDecoder bool // whether the round the frame answers asked for a decoder
	bend        func(u *updateSpec, decoderSize int)
	want        string // what the error says
}{
	{"spoofed client ID", false,
		func(u *updateSpec, _ int) { u.clientID++ }, "filed under client"},
	{"too few weights", false,
		func(u *updateSpec, _ int) { u.weights = u.weights[1:] }, "params"},
	{"no weights", false,
		func(u *updateSpec, _ int) { u.weights = nil }, "params"},
	{"decoder of the wrong length", true,
		func(u *updateSpec, _ int) { u.decoder = u.decoder[1:] }, "decoder of"},
	{"no decoder when asked", true,
		func(u *updateSpec, _ int) { u.decoder = nil }, "decoder of 0"},
	{"decoder nobody asked for", false,
		func(u *updateSpec, n int) { u.decoder = make([]float32, n) }, "asked for none"},
}

// honestSpec is the update the hostile list bends.
func honestSpec(id, modelSize, decoderSize int, needDecoder bool) updateSpec {
	u := updateSpec{clientID: id, samples: 1, weights: make([]float32, modelSize)}
	if needDecoder {
		u.decoder = make([]float32, decoderSize)
		u.decoder[0] = 1
	}
	return u
}

// edgeServer is a server with client 0 registered in the given dialect,
// for calling the edge by hand. Client 0's partition holds edgeSamples
// indices.
func edgeServer(t testing.TB, enc bool, modelSize, decoderSize int) (*Server, *clientConn) {
	t.Helper()
	near, far := net.Pipe()
	t.Cleanup(func() { near.Close(); far.Close() })
	c := &clientConn{id: 0, conn: near, count: wire.NewCountingConn(near), enc: enc}
	s := &Server{cfg: testConfig(), clients: map[int]*clientConn{0: c}, decoders: map[int]*fl.DecoderState{},
		parts: [][]int{make([]int, edgeSamples)}, initGlobal: make([]float32, modelSize),
		decoderSize: decoderSize, kill: make(chan struct{})}
	return s, c
}

const edgeSamples = 5

// checkEdgeInvariants is what every update toUpdate lets through must
// satisfy, whatever frame it came from: the connection's client, the
// model's size, a decoder of the configured size exactly when the round
// asked for one, and the server's own count of the client's samples. A
// cache entry it hands back is that decoder, and the client's cache entry
// is still was: the edge files nothing, only an admitted update's decoder
// is cached.
func checkEdgeInvariants(t *testing.T, s *Server, c *clientConn, u fl.Update, entry, was *fl.DecoderState, needDecoder bool, modelSize int) {
	t.Helper()
	if u.ClientID != c.id {
		t.Fatalf("accepted an update for client %d on client %d's connection", u.ClientID, c.id)
	}
	if len(u.Weights) != modelSize {
		t.Fatalf("accepted %d weights for a model of %d", len(u.Weights), modelSize)
	}
	if needDecoder && len(u.Decoder) != s.decoderSize || !needDecoder && len(u.Decoder) != 0 {
		t.Fatalf("accepted a decoder of %d params (asked: %v, size %d)", len(u.Decoder), needDecoder, s.decoderSize)
	}
	if u.NumSamples != len(s.parts[c.id]) {
		t.Fatalf("accepted a count of %d samples for a partition of %d", u.NumSamples, len(s.parts[c.id]))
	}
	if entry != nil && !sameBits(entry.Params, u.Decoder) {
		t.Fatal("the cache entry is not the update's decoder")
	}
	if s.decoders[c.id] != was {
		t.Fatal("the edge changed the decoder cache")
	}
}

// TestUpdateEdgeRefusesHostileFrames feeds the list to the edge function
// itself, in both dialects: every entry is a protocol violation, and the
// honest update it was bent from passes.
func TestUpdateEdgeRefusesHostileFrames(t *testing.T) {
	const modelSize, decoderSize = 8, 6
	global := make([]float32, modelSize)
	for _, enc := range []bool{false, true} {
		for _, h := range hostileFrames {
			t.Run(encName(enc)+"/"+h.name, func(t *testing.T) {
				s, c := edgeServer(t, enc, modelSize, decoderSize)
				spec := honestSpec(c.id, modelSize, decoderSize, h.needDecoder)
				u, entry, err := s.toUpdate(c, spec.frame(1, enc), h.needDecoder, global)
				if err != nil {
					t.Fatalf("honest update refused: %v", err)
				}
				checkEdgeInvariants(t, s, c, u, entry, nil, h.needDecoder, modelSize)

				h.bend(&spec, decoderSize)
				_, _, err = s.toUpdate(c, spec.frame(1, enc), h.needDecoder, global)
				if !errors.Is(err, errProtocol) || dropReason(err) != "protocol" || !strings.Contains(err.Error(), h.want) {
					t.Fatalf("err = %v, want a protocol violation mentioning %q", err, h.want)
				}
			})
		}
	}
}

// edgePeer registers as id by hand and answers every round request with
// what answer makes of it; a nil answer hangs up instead — the client
// that "simply dropped".
func edgePeer(addr string, id int, enc bool, answer func(round uint32) any) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	hello := &wire.Hello{ClientID: uint32(id)}
	if enc {
		hello.Encodings = wire.CapCodec
	}
	if err := wire.WriteMessage(conn, hello); err != nil {
		return err
	}
	for {
		msg, err := wire.ReadMessage(conn)
		if err != nil {
			return err
		}
		if _, isSetup := msg.(*wire.Setup); isSetup {
			continue
		}
		var round uint32
		switch m := msg.(type) {
		case *wire.TrainRequest:
			round = m.Round
		case *wire.TrainRequestC:
			round = m.Round
		default:
			return nil
		}
		if answer == nil {
			return nil
		}
		if err := wire.WriteMessage(conn, answer(round)); err != nil {
			return err
		}
	}
}

// runWithPeer runs cfg's federation over loopback with client bad played
// by edgePeer and everyone else honest.
func runWithPeer(t *testing.T, cfg Config, strategy fl.Strategy, bad int, answer func(round uint32) any) (*fl.History, *telemetry.CollectSink, error) {
	t.Helper()
	sink := &telemetry.CollectSink{}
	cfg.Telemetry = telemetry.New(sink)
	client := func(addr string, id int) error {
		if id == bad {
			return edgePeer(addr, id, cfg.Compress, answer)
		}
		return RunClient(addr, id, ClientOptions{Compress: cfg.Compress})
	}
	h, _, err := loopback{client: client}.run(t, newServer(t, cfg, testSet(), strategy))
	return h, sink, err
}

// TestHostileFramesOverLoopback is the list again as whole runs, in both
// dialects. Tolerant: the peer is dropped for "protocol" in the first
// round that samples it, the round completes on the others, and the run
// ends on the weights of a run in which that client hung up instead.
// Strict: the run fails with an error naming the client.
func TestHostileFramesOverLoopback(t *testing.T) {
	t.Parallel()
	for _, needDecoder := range []bool{false, true} {
		newStrategy := func() fl.Strategy {
			if needDecoder {
				return &fakeNeedsDecoders{}
			}
			return aggregate.NewFedAvg()
		}
		cfg := testConfig()
		cfg.MinClientsPerRound = 1
		dcfg := cfg.Experiment.Client.CVAE
		modelSize, decoderSize := len(fl.InitialGlobal(cfg.Experiment)), cvae.DecoderSize(dcfg)

		// Sampling does not depend on what clients answer: the first
		// client round 1 samples is the one to play.
		plain, _, err := runWithPeer(t, cfg, newStrategy(), -1, nil)
		if err != nil {
			t.Fatal(err)
		}
		bad := plain.Rounds[0].Sampled[0]
		hungUp, _, err := runWithPeer(t, cfg, newStrategy(), bad, nil)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(hungUp.FinalWeights, plain.FinalWeights) {
			t.Fatal("losing the client changed nothing: the comparison below would be vacuous")
		}

		for _, enc := range []bool{false, true} {
			for _, h := range hostileFrames {
				if h.needDecoder != needDecoder {
					continue
				}
				answer := func(round uint32) any {
					spec := honestSpec(bad, modelSize, decoderSize, needDecoder)
					h.bend(&spec, decoderSize)
					return spec.frame(round, enc)
				}
				t.Run(fmt.Sprintf("%s/%s/tolerant", encName(enc), h.name), func(t *testing.T) {
					tcfg := cfg
					tcfg.Compress = enc
					got, sink, err := runWithPeer(t, tcfg, newStrategy(), bad, answer)
					if err != nil {
						t.Fatalf("tolerant run failed: %v", err)
					}
					if !reflect.DeepEqual(got.Rounds[0].Dropped, []int{bad}) {
						t.Fatalf("round 1 dropped %v, want [%d]", got.Rounds[0].Dropped, bad)
					}
					// Later rounds that sample it again find it "disconnected".
					drops := sink.ByKind("ClientDropped")
					if first := drops[0].(telemetry.ClientDropped); first.ClientID != bad || first.Reason != "protocol" {
						t.Fatalf("first drop %+v, want client %d for reason protocol", first, bad)
					}
					if !reflect.DeepEqual(got.FinalWeights, hungUp.FinalWeights) {
						t.Fatal("final weights differ from the run where the client simply dropped")
					}
				})
				t.Run(fmt.Sprintf("%s/%s/strict", encName(enc), h.name), func(t *testing.T) {
					scfg := cfg
					scfg.Compress = enc
					scfg.MinClientsPerRound = 0
					_, _, err := runWithPeer(t, scfg, newStrategy(), bad, answer)
					if !errors.Is(err, errProtocol) || !strings.Contains(err.Error(), fmt.Sprintf("client %d", bad)) {
						t.Fatalf("err = %v, want a protocol violation naming client %d", err, bad)
					}
				})
			}
		}
	}
}

// TestNonFiniteUploadsOverLoopback: the edge lets a well-shaped update
// with a NaN through, and the round engine refuses it, in both dialects.
// A tolerant run whose peer sends NaN weights (FedAvg), or a NaN decoder
// (FedGuard, audit streamed), ends on the weights of the run in which
// that peer hung up; a strict run completes with the peer in Dropped.
func TestNonFiniteUploadsOverLoopback(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.MinClientsPerRound = 1
	modelSize, decoderSize := len(fl.InitialGlobal(cfg.Experiment)), cvae.DecoderSize(cfg.Experiment.Client.CVAE)
	bad := firstSampled(cfg)
	for _, tc := range []struct {
		name        string
		newStrategy func() fl.Strategy
		poison      func(u *updateSpec)
	}{
		{"NaN weights", func() fl.Strategy { return aggregate.NewFedAvg() },
			func(u *updateSpec) { u.weights[1] = float32(math.NaN()) }},
		{"NaN decoder", func() fl.Strategy { return defense.NewFedGuard(classifier.Tiny(), cfg.Experiment.Client.CVAE) },
			func(u *updateSpec) { u.decoder[1] = float32(math.NaN()) }},
	} {
		needDecoder := tc.newStrategy().NeedsDecoders()
		hungUp, _, err := runWithPeer(t, cfg, tc.newStrategy(), bad, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, enc := range []bool{false, true} {
			answer := func(round uint32) any {
				spec := honestSpec(bad, modelSize, decoderSize, needDecoder)
				tc.poison(&spec)
				return spec.frame(round, enc)
			}
			for _, strict := range []bool{false, true} {
				if strict && needDecoder {
					continue // the strict leg does not depend on the strategy
				}
				t.Run(fmt.Sprintf("%s/%s/strict=%v", tc.name, encName(enc), strict), func(t *testing.T) {
					rcfg := cfg
					rcfg.Compress = enc
					if strict {
						rcfg.MinClientsPerRound = 0
					}
					got, sink, err := runWithPeer(t, rcfg, tc.newStrategy(), bad, answer)
					if err != nil {
						t.Fatalf("run failed: %v", err)
					}
					for _, rec := range got.Rounds {
						if slices.Contains(rec.Sampled, bad) != reflect.DeepEqual(rec.Dropped, []int{bad}) {
							t.Fatalf("round %d sampled %v and dropped %v", rec.Round, rec.Sampled, rec.Dropped)
						}
					}
					if first := sink.ByKind("ClientDropped")[0].(telemetry.ClientDropped); first.ClientID != bad || first.Reason != "invalid" {
						t.Fatalf("first drop %+v, want client %d for reason invalid", first, bad)
					}
					if !strict && !reflect.DeepEqual(got.FinalWeights, hungUp.FinalWeights) {
						t.Fatal("final weights differ from the run where the client hung up")
					}
				})
			}
		}
	}
}

// firstSampled is the first client round 1 samples: sampling does not
// depend on what clients answer, so it is the one to play.
func firstSampled(cfg Config) int {
	return rng.New(rng.DeriveSeed(cfg.Experiment.Seed, "server", 0)).Sample(cfg.Experiment.NumClients, cfg.Experiment.PerRound)[0]
}

// TestQuorumCountsAdmittedUpdates: the quorum holds on the updates the
// round engine admits, not on the frames that arrived. With m = 3 and a
// quorum of 3, a peer whose weights hold a NaN leaves two admitted
// updates, and the first round fails on the quorum.
func TestQuorumCountsAdmittedUpdates(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Experiment.PerRound = 3
	cfg.MinClientsPerRound = 3
	modelSize := len(fl.InitialGlobal(cfg.Experiment))
	bad := firstSampled(cfg)
	answer := func(round uint32) any {
		spec := honestSpec(bad, modelSize, 0, false)
		spec.weights[1] = float32(math.NaN())
		return spec.frame(round, false)
	}
	_, _, err := runWithPeer(t, cfg, aggregate.NewFedAvg(), bad, answer)
	if err == nil || !strings.Contains(err.Error(), "round 1: 2 admitted updates from 3 responsive clients, quorum is 3") {
		t.Fatalf("err = %v, want round 1 to fail on the quorum", err)
	}
}

// TestRefusedDecoderIsNeverCached: a decoder that arrives in full over
// the codec dialect enters the dedup cache — and so the checkpoint — only
// once the round engine admitted its update. A tolerant streamed FedGuard
// run whose peer sends a NaN in its decoder leaves no non-finite float in
// the cache or in any round's checkpoint.
func TestRefusedDecoderIsNeverCached(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.MinClientsPerRound = 1
	cfg.Compress = true
	cfg.CheckpointDir = t.TempDir()
	modelSize, decoderSize := len(fl.InitialGlobal(cfg.Experiment)), cvae.DecoderSize(cfg.Experiment.Client.CVAE)
	bad := firstSampled(cfg)
	answer := func(round uint32) any {
		spec := honestSpec(bad, modelSize, decoderSize, true)
		spec.decoder[1] = float32(math.NaN())
		return spec.frame(round, true)
	}
	finite := func(what string, id int, params []float32) {
		if slices.ContainsFunc(params, func(x float32) bool { return math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) }) {
			t.Errorf("%s holds client %d's non-finite decoder", what, id)
		}
	}
	client := func(addr string, id int) error {
		if id == bad {
			return edgePeer(addr, id, true, answer)
		}
		return RunClient(addr, id, ClientOptions{Compress: true})
	}
	onRound := func(rec fl.RoundRecord) {
		ck, err := persist.LoadCheckpoint(cfg.CheckpointDir)
		if err != nil {
			t.Errorf("round %d checkpoint: %v", rec.Round, err)
			return
		}
		for _, d := range ck.Decoders {
			finite(fmt.Sprintf("round %d's checkpoint", rec.Round), d.ID, d.Params)
		}
	}
	srv := newServer(t, cfg, testSet(), defense.NewFedGuard(classifier.Tiny(), cfg.Experiment.Client.CVAE))
	h, _, err := loopback{client: client, onRound: onRound}.run(t, srv)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.Rounds[0].Dropped, []int{bad}) {
		t.Fatalf("round 1 dropped %v, want the peer %d", h.Rounds[0].Dropped, bad)
	}
	for id, e := range srv.decoders {
		finite("the dedup cache", id, e.Params)
	}
}

// TestSampleCountIsTheServers: FedAvg weighs an update by the partition
// the server drew, so a peer that reports 100× its count ends the run on
// the weights of one that reports its true count.
func TestSampleCountIsTheServers(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	modelSize := len(fl.InitialGlobal(cfg.Experiment))
	bad := rng.New(rng.DeriveSeed(cfg.Experiment.Seed, "server", 0)).Sample(cfg.Experiment.NumClients, cfg.Experiment.PerRound)[0]
	labels := dataset.GenerateLabels(cfg.TrainSize, rng.New(cfg.DataSeed))
	count := uint32(len(fl.Partition(&dataset.Dataset{Labels: labels}, cfg.Experiment)[bad]))
	run := func(samples uint32) *fl.History {
		h, _, err := runWithPeer(t, cfg, aggregate.NewFedAvg(), bad, func(round uint32) any {
			spec := honestSpec(bad, modelSize, 0, false)
			spec.samples = samples
			return spec.frame(round, false)
		})
		if err != nil {
			t.Fatal(err)
		}
		if h.Rounds[0].Dropped != nil {
			t.Fatalf("round 1 dropped %v: the peer's update must be aggregated", h.Rounds[0].Dropped)
		}
		return h
	}
	if truth, lie := run(count), run(100*count); !reflect.DeepEqual(lie.FinalWeights, truth.FinalWeights) {
		t.Fatal("the reported sample count moved FedAvg")
	}
}

// FuzzUpdateEdge throws arbitrary update frames of both dialects at the
// edge function: it never panics, and whatever it accepts is filed under
// the connection's client, model-sized, and carries a decoder only when
// one was asked for and only of the right size. Seeded from the hostile
// list, the honest updates it bends, and a decoder token.
func FuzzUpdateEdge(f *testing.F) {
	const modelSize, decoderSize = 8, 6
	global := make([]float32, modelSize)
	floatBytes := func(v []float32) []byte {
		b := make([]byte, 0, 4*len(v))
		for _, x := range v {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
		return b
	}
	seed := func(msg any, needDecoder bool) {
		switch m := msg.(type) {
		case *wire.Update:
			f.Add(false, needDecoder, m.ClientID, uint32(0), uint32(0), byte(0), uint64(0),
				floatBytes(m.Weights), floatBytes(m.Decoder))
		case *wire.UpdateC:
			f.Add(true, needDecoder, m.ClientID, m.NumParams, m.NumDecoderParams, m.Encoding, m.DecoderHash,
				m.Weights, m.Decoder)
		}
	}
	cached := honestSpec(0, modelSize, decoderSize, true).decoder
	for _, enc := range []bool{false, true} {
		for _, h := range hostileFrames {
			spec := honestSpec(0, modelSize, decoderSize, h.needDecoder)
			seed(spec.frame(1, enc), h.needDecoder)
			h.bend(&spec, decoderSize)
			seed(spec.frame(1, enc), h.needDecoder)
		}
	}
	token := honestSpec(0, modelSize, decoderSize, true).frame(1, true).(*wire.UpdateC)
	token.Decoder, token.NumDecoderParams = nil, 0
	seed(token, true)

	f.Fuzz(func(t *testing.T, enc, needDecoder bool, clientID, numParams, numDecoderParams uint32,
		encoding byte, hash uint64, weights, decoder []byte) {
		s, c := edgeServer(t, enc, modelSize, decoderSize)
		was := &fl.DecoderState{Hash: codec.Hash(cached), Params: cached}
		s.decoders[c.id] = was
		floats := func(b []byte) []float32 {
			v := make([]float32, len(b)/4)
			for i := range v {
				v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
			}
			return v
		}
		var msg any
		if enc {
			msg = &wire.UpdateC{Round: 1, ClientID: clientID, NumSamples: 1, Encoding: encoding,
				NumParams: numParams, Weights: weights, DecoderHash: hash,
				NumDecoderParams: numDecoderParams, Decoder: decoder, DecoderClasses: []uint32{3, 300}}
		} else {
			msg = &wire.Update{Round: 1, ClientID: clientID, NumSamples: 1,
				Weights: floats(weights), Decoder: floats(decoder), DecoderClasses: []uint32{3, 300}}
		}
		u, entry, err := s.toUpdate(c, msg, needDecoder, global)
		if err != nil {
			if !errors.Is(err, errProtocol) {
				t.Fatalf("refusal is not a protocol violation: %v", err)
			}
			return
		}
		checkEdgeInvariants(t, s, c, u, entry, was, needDecoder, modelSize)
	})
}

// handServed serves client id over a pipe and plays its server by hand:
// Hello in, setup out, then each request frame out and — when the client
// answers it — the update frame in. It returns the answers and what
// ServeClientOpts returned (nil after a Shutdown, sent when every frame
// was answered).
func handServed(t *testing.T, id int, enc bool, setup *wire.Setup, requests ...any) ([]any, error) {
	t.Helper()
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	served := make(chan error, 1)
	go func() {
		served <- ServeClientOpts(near, id, ClientOptions{Compress: enc})
		near.Close()
	}()
	if _, err := wire.ReadMessage(far); err != nil {
		t.Fatalf("reading hello: %v", err)
	}
	s := *setup
	if enc {
		s.Encodings |= wire.CapCodec
	}
	if err := wire.WriteMessage(far, &s); err != nil {
		t.Fatalf("sending setup: %v", err)
	}
	var answers []any
	for _, req := range requests {
		if err := wire.WriteMessage(far, req); err != nil {
			return answers, <-served
		}
		msg, err := wire.ReadMessage(far)
		if err != nil {
			return answers, <-served
		}
		answers = append(answers, msg)
	}
	wire.WriteMessage(far, &wire.Shutdown{})
	return answers, <-served
}

// TestWrongLengthGlobalIsAnErrorNotAPanic is the client's side of the
// trust boundary: a server whose Setup names one architecture and whose
// broadcast carries another's vector gets an error naming the client and
// both lengths — not a panic that takes the process, and every client
// co-located in it, down. Nothing was borrowed for the refused round,
// and a second client served by the same process trains its round on the
// process's workers afterwards. Both dialects.
func TestWrongLengthGlobalIsAnErrorNotAPanic(t *testing.T) {
	cfg := testConfig()
	srv := &Server{cfg: cfg}
	indices := dataset.Range(20)
	right := fl.InitialGlobal(cfg.Experiment)
	wrong := right[:len(right)-3]
	request := func(enc bool, global []float32) any {
		if !enc {
			return &wire.TrainRequest{Round: 1, Global: global}
		}
		return &wire.TrainRequestC{Round: 1, Encoding: wire.EncCodec,
			NumParams: uint32(len(global)), Payload: codec.Encode(global)}
	}
	for _, enc := range []bool{false, true} {
		t.Run(encName(enc), func(t *testing.T) {
			forgetWorkerSets()
			defer forgetWorkerSets()

			answers, err := handServed(t, 0, enc, srv.setupFor(0, indices, false), request(enc, wrong))
			want := fmt.Sprintf("fednet: client 0 broadcast: global of %d parameters, the architecture has %d", len(wrong), len(right))
			if err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
			if len(answers) != 0 {
				t.Fatalf("the refused round was answered with %T", answers[0])
			}
			set, serr := sharedWorkers(cfg.ArchName)
			if serr != nil {
				t.Fatal(serr)
			}
			if set.Idle() != set.Built() {
				t.Fatalf("after the refused round %d of %d workers are back in the set", set.Idle(), set.Built())
			}

			answers, err = handServed(t, 1, enc, srv.setupFor(1, indices, false), request(enc, right))
			if err != nil || len(answers) != 1 {
				t.Fatalf("the next client in the process: %d answers, err %v", len(answers), err)
			}
			trained := 0
			switch m := answers[0].(type) {
			case *wire.Update:
				trained = len(m.Weights)
			case *wire.UpdateC:
				trained = int(m.NumParams)
			}
			if trained != len(right) {
				t.Fatalf("the next client answered %T with %d weights, want %d", answers[0], trained, len(right))
			}
			if set.Built() != 1 || set.Idle() != 1 {
				t.Fatalf("two clients in turn: %d workers built, %d idle; want one, back in the set", set.Built(), set.Idle())
			}
		})
	}
}

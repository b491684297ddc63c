package fednet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"

	"fedguard/internal/aggregate"
	"fedguard/internal/codec"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/fl"
	"fedguard/internal/telemetry"
	"fedguard/internal/wire"
)

// updateSpec is an update before it is framed: what a peer claims, in
// neither dialect.
type updateSpec struct {
	clientID         int
	weights, decoder []float32
}

// frame writes the spec in a dialect. The codec form is self-contained
// (EncCodec weights, the decoder in full), so it needs no shared state.
func (u updateSpec) frame(round uint32, enc bool) any {
	if !enc {
		return &wire.Update{Round: round, ClientID: uint32(u.clientID), NumSamples: 1,
			Weights: u.weights, Decoder: u.decoder}
	}
	m := &wire.UpdateC{Round: round, ClientID: uint32(u.clientID), NumSamples: 1,
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
	{"decoder nobody asked for", false,
		func(u *updateSpec, n int) { u.decoder = make([]float32, n) }, "asked for none"},
}

// honestSpec is the update the hostile list bends.
func honestSpec(id, modelSize, decoderSize int, needDecoder bool) updateSpec {
	u := updateSpec{clientID: id, weights: make([]float32, modelSize)}
	if needDecoder {
		u.decoder = make([]float32, decoderSize)
		u.decoder[0] = 1
	}
	return u
}

// edgeServer is a server with client 0 registered in the given dialect,
// for calling the edge by hand.
func edgeServer(t testing.TB, enc bool, modelSize, decoderSize int) (*Server, *clientConn) {
	t.Helper()
	near, far := net.Pipe()
	t.Cleanup(func() { near.Close(); far.Close() })
	c := &clientConn{id: 0, conn: near, count: wire.NewCountingConn(near), enc: enc}
	s := &Server{cfg: testConfig(), clients: map[int]*clientConn{0: c}, decoders: map[int]*decoderCache{},
		initGlobal: make([]float32, modelSize), decoderSize: decoderSize, kill: make(chan struct{})}
	return s, c
}

// checkEdgeInvariants is what every update toUpdate lets through must
// satisfy, whatever frame it came from.
func checkEdgeInvariants(t *testing.T, s *Server, c *clientConn, u fl.Update, needDecoder bool, modelSize int) {
	t.Helper()
	if u.ClientID != c.id {
		t.Fatalf("accepted an update for client %d on client %d's connection", u.ClientID, c.id)
	}
	if len(u.Weights) != modelSize {
		t.Fatalf("accepted %d weights for a model of %d", len(u.Weights), modelSize)
	}
	if len(u.Decoder) != 0 && (!needDecoder || len(u.Decoder) != s.decoderSize) {
		t.Fatalf("accepted a decoder of %d params (asked: %v, size %d)", len(u.Decoder), needDecoder, s.decoderSize)
	}
	if e := s.decoders[c.id]; e != nil && len(e.params) != s.decoderSize {
		t.Fatalf("cached a decoder of %d params, size is %d", len(e.params), s.decoderSize)
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
				u, err := s.toUpdate(c, spec.frame(1, enc), h.needDecoder, global)
				if err != nil {
					t.Fatalf("honest update refused: %v", err)
				}
				checkEdgeInvariants(t, s, c, u, h.needDecoder, modelSize)

				h.bend(&spec, decoderSize)
				_, err = s.toUpdate(c, spec.frame(1, enc), h.needDecoder, global)
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
		s.decoders[c.id] = &decoderCache{hash: codec.Hash(cached), params: cached}
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
		u, err := s.toUpdate(c, msg, needDecoder, global)
		if err != nil {
			if !errors.Is(err, errProtocol) {
				t.Fatalf("refusal is not a protocol violation: %v", err)
			}
			return
		}
		checkEdgeInvariants(t, s, c, u, needDecoder, modelSize)
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

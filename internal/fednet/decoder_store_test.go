package fednet

import (
	"errors"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"fedguard/internal/codec"
	"fedguard/internal/fl"
	"fedguard/internal/wire"
)

// collide returns a decoder that differs from dec in its first float yet
// hashes the same: codec.Hash is FNV-1a over 64-bit words, so after
// changing word 0 the one word that restores the running state is
// solved, not searched for. This is the second preimage the checkpoint
// store's per-client blob names and the server's same-hash check exist
// for.
func collide(t *testing.T, dec []float32) []float32 {
	t.Helper()
	const offset64, prime64 = 14695981039346656037, 1099511628211
	word := func(v []float32, i int) uint64 {
		return uint64(math.Float32bits(v[2*i])) | uint64(math.Float32bits(v[2*i+1]))<<32
	}
	out := append([]float32(nil), dec...)
	out[0]++
	stateDec := (offset64 ^ word(dec, 0)) * prime64
	stateOut := (offset64 ^ word(out, 0)) * prime64
	solved := stateOut ^ stateDec ^ word(dec, 1)
	out[2] = math.Float32frombits(uint32(solved))
	out[3] = math.Float32frombits(uint32(solved >> 32))
	if codec.Hash(out) != codec.Hash(dec) || sameBits(out, dec) {
		t.Fatal("collision construction is broken")
	}
	return out
}

// pipeServer is a server with two registered codec connections whose far
// ends the test plays by hand.
func pipeServer(t *testing.T, tolerant bool, modelSize, decoderSize int) (*Server, [2]net.Conn) {
	t.Helper()
	cfg := testConfig()
	if tolerant {
		cfg.MinClientsPerRound = 1
	}
	s := &Server{cfg: cfg, clients: map[int]*clientConn{}, decoders: map[int]*decoderCache{}, parts: make([][]int, 2),
		initGlobal: make([]float32, modelSize), decoderSize: decoderSize, kill: make(chan struct{})}
	var far [2]net.Conn
	for id := range far {
		near, remote := net.Pipe()
		t.Cleanup(func() { near.Close(); remote.Close() })
		near.SetDeadline(time.Now().Add(30 * time.Second))
		remote.SetDeadline(time.Now().Add(30 * time.Second))
		s.clients[id] = &clientConn{id: id, conn: near, count: wire.NewCountingConn(near), enc: true}
		far[id] = remote
	}
	return s, far
}

// answer plays one client's half of a round: read the request, upload
// the global unchanged with the given decoder attached in full.
func answer(conn net.Conn, id int, global, decoder []float32) error {
	msg, err := wire.ReadMessage(conn)
	if err != nil {
		return err
	}
	req := msg.(*wire.TrainRequestC)
	return wire.WriteMessage(conn, &wire.UpdateC{
		Round: req.Round, ClientID: uint32(id), NumSamples: 1,
		Encoding: wire.EncCodec, NumParams: uint32(len(global)), Weights: codec.Encode(global),
		DecoderHash: codec.Hash(decoder), NumDecoderParams: uint32(len(decoder)),
		Decoder: codec.Encode(decoder),
	})
}

// TestDecoderChangedUnderUnchangedHash: the checkpoint store writes a
// decoder once, under its hash. A full decoder upload that reuses the
// cached hash with different floats would leave the live cache holding
// the new floats and the store the old ones, so a resumed run would
// diverge from the uninterrupted one; it is a protocol violation — an
// abort in strict mode, a drop in tolerant mode — and the cache keeps
// what the store has. Resending the identical payload stays legal.
func TestDecoderChangedUnderUnchangedHash(t *testing.T) {
	global := []float32{0.5, -1, 2, 0}
	honest := []float32{1, 2, 3, 4, 5, 6}
	for _, tolerant := range []bool{false, true} {
		name := "strict"
		if tolerant {
			name = "tolerant"
		}
		t.Run(name, func(t *testing.T) {
			s, far := pipeServer(t, tolerant, len(global), len(honest))
			forged := collide(t, honest)
			round := func(r int, first []float32) ([]int, error) {
				errs := make(chan error, 2)
				go func() { errs <- answer(far[0], 0, global, first) }()
				go func() { errs <- answer(far[1], 1, global, honest) }()
				updates, dropped, err := s.trainRound(r, []int{0, 1}, global, true, func(int, fl.Update) bool { return true }, nil)
				for range far {
					if cerr := <-errs; cerr != nil {
						t.Fatalf("round %d client: %v (server: %v)", r, cerr, err)
					}
				}
				if err == nil && len(updates)+len(dropped) != 2 {
					t.Fatalf("round %d: %d updates and %d drops for 2 clients", r, len(updates), len(dropped))
				}
				return dropped, err
			}
			// First delivery, then the same floats again in full (what a
			// client does when the request advertised no hash).
			for r := 1; r <= 2; r++ {
				if dropped, err := round(r, honest); err != nil || len(dropped) != 0 {
					t.Fatalf("round %d: dropped %v, err %v; an identical resend is legal", r, dropped, err)
				}
			}
			dropped, err := round(3, forged)
			if tolerant {
				if err != nil || !reflect.DeepEqual(dropped, []int{0}) {
					t.Fatalf("dropped %v, err %v; want client 0 dropped", dropped, err)
				}
			} else if !errors.Is(err, errProtocol) || !strings.Contains(err.Error(), "decoder changed under an unchanged hash") {
				t.Fatalf("err = %v, want the same-hash protocol violation", err)
			}
			if e := s.decoders[0]; e == nil || !sameBits(e.params, honest) {
				t.Fatal("the cache took the forged decoder")
			}
		})
	}
}

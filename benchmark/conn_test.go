package main

import (
	"bytes"
	"net"
	"testing"
	"time"

	"fedguard/internal/wire"
)

// TestFramerFindsFramesInAnyChunking writes real frames with package wire
// and feeds them to the framer whole and byte by byte.
func TestFramerFindsFramesInAnyChunking(t *testing.T) {
	var buf bytes.Buffer
	msgs := []any{
		&wire.Hello{ClientID: 4},
		&wire.TrainRequest{Round: 3, Global: make([]float32, 100)},
		&wire.UpdateC{Round: 7, ClientID: 4, Weights: []byte{1, 2, 3}},
		&wire.Shutdown{},
	}
	var sizes []int
	for _, m := range msgs {
		before := buf.Len()
		if err := wire.WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, buf.Len()-before)
	}
	wantTyp := []byte{wire.TypeHello, wire.TypeTrainRequest, wire.TypeUpdateC, wire.TypeShutdown}
	wantRound := []int{0, 3, 7, 0}
	for _, chunk := range []int{buf.Len(), 1, 7} {
		var f framer
		for b := buf.Bytes(); len(b) > 0; {
			n := min(chunk, len(b))
			f.feed(b[:n], 1, 2)
			b = b[n:]
		}
		if len(f.frames) != len(msgs) {
			t.Fatalf("chunk %d: %d frames, want %d", chunk, len(f.frames), len(msgs))
		}
		for i, fr := range f.frames {
			if fr.typ != wantTyp[i] || fr.round != wantRound[i] || fr.bytes != sizes[i] {
				t.Errorf("chunk %d frame %d: typ %d round %d bytes %d, want %d %d %d",
					chunk, i, fr.typ, fr.round, fr.bytes, wantTyp[i], wantRound[i], sizes[i])
			}
		}
	}
}

// TestConnTimelineSplitsATurn scripts one client turn over a pipe: the
// server sends a request, the client reads it, computes for a while and
// uploads. The conn seam has to find the three parts and count the bytes
// on the server's side by round.
func TestConnTimelineSplitsATurn(t *testing.T) {
	tr := newTracer()
	srvEnd, cliEnd := net.Pipe()
	server := &tracedConn{Conn: srvEnd, tr: tr, client: -1}
	client := &tracedConn{Conn: cliEnd, tr: tr, client: 9}
	const compute = 30 * time.Millisecond

	done := make(chan error, 1)
	go func() {
		defer cliEnd.Close()
		if err := wire.WriteMessage(client, &wire.Hello{ClientID: 9}); err != nil {
			done <- err
			return
		}
		if _, err := wire.ReadMessage(client); err != nil {
			done <- err
			return
		}
		time.Sleep(compute)
		done <- wire.WriteMessage(client, &wire.Update{Round: 5, ClientID: 9, Weights: make([]float32, 2000)})
	}()
	if _, err := wire.ReadMessage(server); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMessage(server, &wire.TrainRequest{Round: 5, Global: make([]float32, 2000)}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadMessage(server); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	ns := readConns([]*tracedConn{server}, []*tracedConn{client}, 0)
	size := func(msg any) int64 {
		var buf bytes.Buffer
		if err := wire.WriteMessage(&buf, msg); err != nil {
			t.Fatal(err)
		}
		return int64(buf.Len())
	}
	if want := size(&wire.TrainRequest{Round: 5, Global: make([]float32, 2000)}); ns.bytesUp != want || ns.upByRound[5] != want {
		t.Errorf("request bytes %d (round 5: %d), want %d", ns.bytesUp, ns.upByRound[5], want)
	}
	if want := size(&wire.Update{Round: 5, ClientID: 9, Weights: make([]float32, 2000)}); ns.bytesDown != want || ns.downByRound[5] != want {
		t.Errorf("update bytes %d (round 5: %d), want %d", ns.bytesDown, ns.downByRound[5], want)
	}
	if ns.clientComputeS < compute.Seconds() || ns.clientComputeS > 10*compute.Seconds() {
		t.Errorf("client compute %.4fs, slept %v", ns.clientComputeS, compute)
	}
	if ns.requestReadS < 0 || ns.uploadWriteS <= 0 || ns.registerS <= 0 {
		t.Errorf("request read %.6fs, upload write %.6fs, register %.6fs", ns.requestReadS, ns.uploadWriteS, ns.registerS)
	}
	if turn := ns.requestReadS + ns.clientComputeS + ns.uploadWriteS; !near(turn, ns.slowestClientS) {
		t.Errorf("the only client's turn is %.6fs but the slowest is %.6fs", turn, ns.slowestClientS)
	}
	if len(ns.turns) != 3 || ns.turns[1].Name != "fednet.client_compute" || ns.turns[1].Client != 9 || ns.turns[1].Round != 5 {
		t.Errorf("turn spans: %+v", ns.turns)
	}
}

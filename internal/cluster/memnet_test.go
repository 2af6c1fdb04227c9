package cluster

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"dolbie/internal/core"
)

// TestMemNetRegistrationFootprint pins on-demand inbox allocation:
// registering a node costs a few words, not its 1024-slot capacity
// (which used to be preallocated, about 200 MB for 4096 nodes).
func TestMemNetRegistrationFootprint(t *testing.T) {
	const n = 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net := NewMemNet()
	for i := 0; i < n; i++ {
		net.Node(i)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(net)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("registering %d nodes allocated %d bytes", n, got)
	if got >= 1<<20 {
		t.Errorf("registering %d nodes allocated %d bytes, want well under 1 MB", n, got)
	}
}

// TestMemNetSmallInboxConcurrentSenders drives many senders into a
// 2-slot inbox: every message arrives, each sender's messages in the
// order it sent them (a lost wake-up would hang the test), and ctx
// cancellation releases both a blocked Recv and a blocked Send.
func TestMemNetSmallInboxConcurrentSenders(t *testing.T) {
	const senders, per = 8, 300
	net := NewMemNet(WithInboxBuffer(2))
	rx := net.Node(senders)
	tx := make([]Transport, senders)
	for i := range tx {
		tx[i] = net.Node(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	msg := func(from, seq int) Envelope {
		return NewEnvelope(KindCost, from, senders, core.CostReport{Round: seq, From: from})
	}

	var wg sync.WaitGroup
	for i := range tx {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 1; k <= per; k++ {
				if _, err := tx[i].Send(ctx, senders, msg(i, k)); err != nil {
					t.Errorf("sender %d message %d: %v", i, k, err)
					return
				}
			}
		}(i)
	}
	last := make([]int, senders)
	for got := 0; got < senders*per; got++ {
		env, _, err := rx.Recv(ctx)
		if err != nil {
			t.Fatalf("after %d messages: %v", got, err)
		}
		r := env.Msg.(core.CostReport)
		if r.Round != last[r.From]+1 {
			t.Fatalf("sender %d: message %d after %d", r.From, r.Round, last[r.From])
		}
		last[r.From] = r.Round
	}
	wg.Wait()

	// The inbox is empty: a Recv blocks until its context is cancelled.
	recvCtx, stopRecv := context.WithCancel(ctx)
	recvErr := make(chan error, 1)
	go func() {
		_, _, err := rx.Recv(recvCtx)
		recvErr <- err
	}()
	stopRecv()
	if err := <-recvErr; !errors.Is(err, context.Canceled) {
		t.Errorf("Recv on an empty inbox after cancel = %v, want context.Canceled", err)
	}

	// Fill the inbox: a third Send blocks until a Recv frees a slot, and
	// a fourth until its context is cancelled.
	for k := 1; k <= 2; k++ {
		if _, err := tx[0].Send(ctx, senders, msg(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	sendErr := make(chan error, 1)
	go func() {
		_, err := tx[1].Send(ctx, senders, msg(1, 1))
		sendErr <- err
	}()
	if env, _, err := rx.Recv(ctx); err != nil || env.Msg.(core.CostReport).From != 0 {
		t.Fatalf("Recv = %+v, %v; want sender 0's first message", env, err)
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("blocked Send after a Recv freed a slot: %v", err)
	}
	sendCtx, stopSend := context.WithCancel(ctx)
	go func() {
		_, err := tx[2].Send(sendCtx, senders, msg(2, 1))
		sendErr <- err
	}()
	stopSend()
	if err := <-sendErr; !errors.Is(err, context.Canceled) {
		t.Errorf("Send into a full inbox after cancel = %v, want context.Canceled", err)
	}
	for _, from := range []int{0, 1} {
		env, _, err := rx.Recv(ctx)
		if err != nil || env.Msg.(core.CostReport).From != from {
			t.Fatalf("Recv = %+v, %v; want sender %d", env, err, from)
		}
	}
}

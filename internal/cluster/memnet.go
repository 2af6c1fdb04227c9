package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"dolbie/internal/wire"
)

// delivery is an in-flight MemNet message: the envelope plus its frame
// size under the hub's codec, computed once at send so both ends meter
// identical byte counts without re-encoding.
type delivery struct {
	env Envelope
	n   int
}

// MemNet is an in-memory network hub for tests and single-process
// simulations. Every registered node gets a bounded FIFO inbox whose
// storage is allocated on demand, so an idle node costs a few words
// whatever the capacity; Send enqueues directly, so delivery preserves
// per-receiver FIFO order of the send operations. Deterministic fault
// injection (message drops and node partitions) is available for
// failure testing. Messages are not
// actually encoded, but every send is sized with the hub's codec
// (wire.FrameSize, default binary) so metered traffic matches what a
// real TCP deployment of the same codec would carry.
type MemNet struct {
	mu       sync.Mutex
	nodes    map[int]*memNode
	dropProb float64
	rng      *rand.Rand
	cut      map[[2]int]bool // severed directed links
	buffer   int
	codec    wire.Codec
}

// MemNetOption configures a MemNet.
type MemNetOption func(*MemNet)

// WithDropProb drops each message independently with probability p, using
// a deterministic seeded source. The DOLBIE protocols stall forever on a
// single lost message, so a lossy MemNet must run beneath a Reliable
// wrapper, which masks the drops with retransmission — on its own this
// option only simulates an unusable network. For richer, per-link fault
// injection (delay, duplication, reordering, round-gated partitions,
// crashes) use the Chaos wrapper instead, which composes over any
// Transport.
func WithDropProb(p float64, seed int64) MemNetOption {
	return func(m *MemNet) {
		m.dropProb = p
		m.rng = rand.New(rand.NewSource(seed))
	}
}

// WithInboxBuffer overrides the per-node inbox capacity (default 1024):
// the number of undelivered messages a node can hold before Send blocks.
// The queue is allocated on demand as messages arrive, so a large
// capacity costs memory only while messages actually wait.
func WithInboxBuffer(n int) MemNetOption {
	return func(m *MemNet) {
		if n > 0 {
			m.buffer = n
		}
	}
}

// WithCodec selects the wire codec used to size simulated traffic
// (default wire.Default). A nil codec is ignored.
func WithCodec(c wire.Codec) MemNetOption {
	return func(m *MemNet) {
		if c != nil {
			m.codec = c
		}
	}
}

// NewMemNet constructs an empty hub.
func NewMemNet(opts ...MemNetOption) *MemNet {
	m := &MemNet{
		nodes:  make(map[int]*memNode),
		cut:    make(map[[2]int]bool),
		buffer: 1024,
		codec:  wire.Default,
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Node registers (or returns) the transport endpoint of node id.
func (m *MemNet) Node(id int) Transport {
	m.mu.Lock()
	defer m.mu.Unlock()
	node, ok := m.nodes[id]
	if !ok {
		node = &memNode{net: m, id: id}
		m.nodes[id] = node
	}
	return node
}

// Cut severs the directed link from -> to; messages sent over it are
// silently dropped until Heal. Unlike WithDropProb's losses, a cut is
// NOT masked by a Reliable wrapper — retransmissions die on the severed
// link just like first attempts — so the protocols stall until Heal or,
// under the fail-stop extension, until the silent peer is evicted. For
// partitions that start and end at protocol-round boundaries (and are
// therefore reproducible independent of scheduling) use the Chaos
// wrapper's ChaosPartition instead.
func (m *MemNet) Cut(from, to int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cut[[2]int{from, to}] = true
}

// Heal restores the directed link from -> to.
func (m *MemNet) Heal(from, to int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cut, [2]int{from, to})
}

func (m *MemNet) send(ctx context.Context, src *memNode, to int, env Envelope) (int, error) {
	from := src.id
	n, err := wire.FrameSize(m.codec, env)
	if err != nil {
		return 0, fmt.Errorf("cluster: send to %d: %w", to, err)
	}
	m.mu.Lock()
	if src.closed.Load() {
		m.mu.Unlock()
		return 0, fmt.Errorf("%w (node %d)", ErrClosed, from)
	}
	dst, ok := m.nodes[to]
	if !ok || dst.closed.Load() {
		m.mu.Unlock()
		return 0, fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	if m.cut[[2]int{from, to}] {
		m.mu.Unlock()
		return n, nil // silently dropped: partition
	}
	if m.rng != nil && m.rng.Float64() < m.dropProb {
		m.mu.Unlock()
		return n, nil // silently dropped: lossy link
	}
	m.mu.Unlock()

	if err := dst.push(ctx, delivery{env: env, n: n}, m.buffer); err != nil {
		return 0, fmt.Errorf("cluster: send to %d: %w", to, err)
	}
	return n, nil
}

// minInbox is the first allocation of a node's queue.
const minInbox = 4

// memNode is one node of a MemNet and its Transport endpoint. Its inbox
// is a ring-buffer FIFO behind the node's own lock: it starts empty,
// doubles on demand up to the hub's capacity, and Send blocks while it
// is full. A blocked Send or Recv waits on a wake channel that the next
// pop or push closes; the channel is made only when someone waits and
// every state change re-arms it, so no wake-up is lost and the waiter
// re-checks the queue under the lock.
type memNode struct {
	net    *MemNet
	id     int
	closed atomic.Bool

	mu       sync.Mutex
	buf      []delivery // ring; len(buf) is the allocated capacity
	head     int32
	count    int32
	recvWake chan struct{} // closed by the next push; nil when no Recv waits
	sendWake chan struct{} // closed by the next pop; nil when no Send waits
}

var _ Transport = (*memNode)(nil)

// push appends d, blocking while limit messages are queued.
func (q *memNode) push(ctx context.Context, d delivery, limit int) error {
	q.mu.Lock()
	for int(q.count) >= limit {
		if q.sendWake == nil {
			q.sendWake = make(chan struct{})
		}
		wake := q.sendWake
		q.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
		q.mu.Lock()
	}
	if int(q.count) == len(q.buf) {
		buf := make([]delivery, min(max(2*len(q.buf), minInbox), limit))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(int(q.head)+int(q.count))%len(q.buf)] = d
	q.count++
	if q.recvWake != nil {
		close(q.recvWake)
		q.recvWake = nil
	}
	q.mu.Unlock()
	return nil
}

// pop removes the oldest message, blocking while the queue is empty.
func (q *memNode) pop(ctx context.Context) (delivery, error) {
	q.mu.Lock()
	for q.count == 0 {
		if q.recvWake == nil {
			q.recvWake = make(chan struct{})
		}
		wake := q.recvWake
		q.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return delivery{}, ctx.Err()
		}
		q.mu.Lock()
	}
	d := q.buf[q.head]
	q.buf[q.head] = delivery{} // drop the payload reference
	q.head = int32((int(q.head) + 1) % len(q.buf))
	q.count--
	if q.sendWake != nil {
		close(q.sendWake)
		q.sendWake = nil
	}
	q.mu.Unlock()
	return d, nil
}

func (q *memNode) Send(ctx context.Context, to int, env Envelope) (int, error) {
	return q.net.send(ctx, q, to, env)
}

func (q *memNode) Recv(ctx context.Context) (Envelope, int, error) {
	if q.closed.Load() {
		return Envelope{}, 0, fmt.Errorf("%w (node %d)", ErrClosed, q.id)
	}
	d, err := q.pop(ctx)
	if err != nil {
		return Envelope{}, 0, fmt.Errorf("cluster: recv on %d: %w", q.id, err)
	}
	return d.env, d.n, nil
}

// Close marks the node closed: later sends from or to it fail, and so
// does a later Recv.
func (q *memNode) Close() error {
	q.closed.Store(true)
	return nil
}

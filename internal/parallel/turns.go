package parallel

import (
	"fmt"
	"sync"
	"time"
)

// Turns serializes concurrent producers into a strict turn order: the
// goroutine holding turn i runs its critical section before any holder
// of turn i+1 may start, regardless of which finished producing first.
// The shard fan-out coordinator uses it to turn unordered shard
// completion into in-order delivery: shards stream concurrently, rows
// leave in global grid order.
//
// Turn indices must be claimed contiguously from 0 — every index below
// the highest one passed to Do must eventually be passed to Do by some
// goroutine, or later turns wait forever. The shard coordinator
// guarantees this by claiming work from a monotone counter and always
// taking the claimed turn, error or not.
type Turns struct {
	mu   sync.Mutex
	cond *sync.Cond
	// turn is the next index allowed to run; guarded by mu.
	turn int
	// err is the first error in turn (= index) order; once set, later
	// turns are refused. Guarded by mu.
	err error
}

// NewTurns returns a sequencer whose first turn is index 0.
func NewTurns() *Turns {
	t := &Turns{}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Do blocks until index turn's turn arrives, runs f, and advances to
// turn+1 when f returns nil. It returns the time spent waiting for the
// turn and whether the sequence may continue: false means either the
// sequence was aborted before f could run (f did not run), or f itself
// returned the error that aborted it. Because turns run in index order,
// the first recorded error is the lowest-index error — the
// sequential-equivalent error semantics of the sweep engine.
//
// A panic in f aborts the sequence like an error does, releasing every
// waiter, and then continues to Do's caller with its original value.
func (t *Turns) Do(turn int, f func() error) (wait time.Duration, ok bool) {
	start := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.turn != turn && t.err == nil {
		t.cond.Wait()
	}
	wait = time.Since(start)
	if t.err != nil {
		return wait, false
	}
	defer t.cond.Broadcast()
	defer func() {
		if r := recover(); r != nil {
			t.err = fmt.Errorf("parallel: turn %d panicked: %v", turn, r)
			panic(r)
		}
	}()
	if err := f(); err != nil {
		t.err = err
		return wait, false
	}
	t.turn++
	return wait, true
}

// Done returns how many turns completed successfully so far.
func (t *Turns) Done() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.turn
}

// Err returns the error that aborted the sequence, nil if none did.
func (t *Turns) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

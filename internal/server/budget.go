package server

import (
	"context"
	"errors"
	"sync"
)

// errOverloaded reports that the worker queue is full: the request was
// shed instead of queued. Handlers translate it to 503 + Retry-After.
var errOverloaded = errors.New("server overloaded: worker queue full")

// workerBudget is the server-wide sampling/fitting concurrency budget: a
// counting semaphore over worker slots shared by every in-flight
// request. Requests acquire slots for one compute burst at a time (one
// synthesis chunk, one fit) and release them before writing to the
// client, so a slow reader exerts back-pressure on its own response
// stream without pinning workers the rest of the fleet could use.
//
// Acquisition is all-at-once but elastic: a caller asking for `want`
// slots blocks only while the budget is empty, then takes
// min(want, available). Nothing ever holds a partial claim while
// waiting, so requests cannot deadlock against each other, and under
// load every request degrades toward 1 worker instead of queueing
// behind the largest ask.
type workerBudget struct {
	mu      sync.Mutex
	cond    *sync.Cond
	total   int
	avail   int
	waiting int // requests parked in acquire
	maxWait int // queue-depth cap; admission acquires beyond it shed
}

func newWorkerBudget(total, maxWait int) *workerBudget {
	if total < 1 {
		total = 1
	}
	if maxWait < 0 {
		maxWait = 0
	}
	b := &workerBudget{total: total, avail: total, maxWait: maxWait}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// acquire claims min(want, free) slots once at least one is free,
// blocking while the budget is empty. shed selects admission-control
// behavior: when true and the budget is empty with maxWait requests
// already parked, acquire returns errOverloaded immediately instead of
// queueing unboundedly — graceful degradation under overload. Requests
// already mid-stream pass shed=false: once admitted, they may park.
// The returned release must be called exactly once; it is nil when
// err != nil.
func (b *workerBudget) acquire(ctx context.Context, want int, shed bool) (got int, release func(), err error) {
	if want < 1 {
		want = 1
	}
	if want > b.total {
		want = b.total
	}
	// Wake waiters when the request is abandoned, so a cancelled client
	// does not sit in cond.Wait forever. The lock round-trip orders the
	// broadcast after the waiter has parked: without it a cancellation
	// firing between the waiter's ctx.Err() check and cond.Wait() would
	// be lost and the waiter would sleep until the next release.
	stop := context.AfterFunc(ctx, func() {
		b.mu.Lock()
		//lint:ignore SA2001 empty critical section orders the broadcast
		b.mu.Unlock()
		b.cond.Broadcast()
	})
	defer stop()

	b.mu.Lock()
	defer b.mu.Unlock()
	if shed && b.avail == 0 && b.waiting >= b.maxWait {
		return 0, nil, errOverloaded
	}
	b.waiting++
	for b.avail == 0 {
		if err := ctx.Err(); err != nil {
			b.waiting--
			return 0, nil, err
		}
		b.cond.Wait()
	}
	b.waiting--
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	got = min(want, b.avail)
	b.avail -= got
	var once sync.Once
	return got, func() {
		once.Do(func() {
			b.mu.Lock()
			b.avail += got
			b.mu.Unlock()
			b.cond.Broadcast()
		})
	}, nil
}

// available reports the free slots (for tests and /healthz).
func (b *workerBudget) available() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.avail
}

// queueDepth reports the parked requests (for /healthz and Retry-After
// estimates).
func (b *workerBudget) queueDepth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.waiting
}

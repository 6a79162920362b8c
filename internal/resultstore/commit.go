package resultstore

import (
	"context"
	"errors"
)

// ErrQueueFull is Enqueue's refusal: the commit queue already holds
// Options.QueueDepth batches and nothing was queued.
var ErrQueueFull = errors.New("resultstore: commit queue full")

var errClosed = errors.New("resultstore: store is closed")

// Pending is one queued batch's wait handle.
type Pending struct {
	store   *Store
	batch   Batch
	applied bool
	// done is buffered so the committer never blocks acknowledging a
	// waiter that gave up.
	done chan error
}

// Enqueue queues one batch for the committer without blocking and
// returns the handle to wait on; a full queue is ErrQueueFull. It is
// Append for callers that shed load instead of waiting for a slot.
func (s *Store) Enqueue(b Batch) (*Pending, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	p := &Pending{store: s, batch: b, done: make(chan error, 1)}
	select {
	case <-s.done: // always ready once closed, so never ErrQueueFull then
		return nil, errClosed
	case s.queue <- p:
		return p, nil
	default:
		return nil, ErrQueueFull
	}
}

// Wait blocks until the batch's group is durably committed and reports
// whether the batch was new (false = duplicate key). Giving up through
// ctx does not withdraw the batch: it may still commit, and a retry
// under its key then dedups.
func (p *Pending) Wait(ctx context.Context) (applied bool, err error) {
	select {
	case err := <-p.done:
		return p.applied, err
	case <-ctx.Done():
		return false, ctx.Err()
	case <-p.store.done:
	}
	// The store is closing: the committer acks the group it is writing
	// and exits, so once it is gone a batch is acked or was never written.
	p.store.wg.Wait()
	select {
	case err := <-p.done:
		return p.applied, err
	default:
		return false, errClosed
	}
}

// committer is the store's single queued writer: it takes one pending
// batch, drains whatever else is waiting, and commits the group under
// one fsync. Started by Open, joined by Close. The commit runs under
// context.Background() deliberately: a group mixes batches from many
// callers, so no one caller's context may abort it; shutdown is the
// store's done channel.
func (s *Store) committer() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case p := <-s.queue:
			// The queue's only receiver: what len saw is still there, so
			// no receive blocks. A group never outgrows QueueDepth.
			group := []*Pending{p}
			for n := len(s.queue); n > 0 && len(group) < cap(s.queue); n-- {
				group = append(group, <-s.queue)
			}
			batches := make([]Batch, len(group))
			for i, q := range group {
				batches[i] = q.batch
			}
			//benchlint:ignore ctxflow a group mixes many callers' batches, so none of their contexts may abort it
			applied, err := s.AppendMany(context.Background(), batches)
			for i, q := range group {
				if err == nil {
					q.applied = applied[i]
				}
				q.done <- err
			}
		}
	}
}

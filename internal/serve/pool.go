package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"navaug/internal/fault"
	"navaug/internal/route"
)

// defaultWorkers sizes the pool at one worker per CPU: queries are pure
// compute, so extra workers only add scratch memory and queueing noise.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Pool submission errors, surfaced to handlers as load-shedding (429),
// panic-isolation (500) and deadline (503) responses.
var (
	// ErrOverloaded means the bounded task queue was full at submission:
	// the request is shed rather than queued without bound.
	ErrOverloaded = errors.New("serve: worker queue full")
	// ErrPanicked means the task's closure panicked on the worker; the
	// worker recovered, rebuilt its scratch and counted the panic — the
	// request fails, the process does not.
	ErrPanicked = errors.New("serve: worker panicked")
	// ErrClosed means the pool shut down before a worker ran the task.
	ErrClosed = errors.New("serve: pool closed")
	// ErrExpired means ctx had ended before submission; fn never runs.
	ErrExpired = errors.New("deadline exceeded before dispatch")
	// ErrTimedOut means ctx ended first, but fn still runs to completion,
	// so nothing it captured may be reused until then.
	ErrTimedOut = errors.New("request timed out")
)

// Shard is the per-worker state of the query pool: a reusable routing
// scratch owned exclusively by one worker goroutine — the same ownership
// discipline as sim.Engine's Monte Carlo workers, which is what lets query
// handlers route with zero per-request allocation and no locks on the hot
// path.
type Shard struct {
	ID      int
	Scratch *route.Scratch
}

type task struct {
	run  func(*Shard)
	done chan struct{}
	err  error // written (if at all) before done closes
}

// poolConfig wires the pool to its owner: fault injection, per-shard
// breaker tuning, and the panic callback, which runs on the worker
// goroutine that owns the shard.
type poolConfig struct {
	n, workers, queue int
	inj               *fault.Injector
	breakerThreshold  int
	breakerCooldown   time.Duration
	onPanic           func(*Shard) // after every recovered panic
}

// pool is a fixed-size worker pool over Shards with a bounded queue.
// Requests submit closures with TryDo; each closure runs on exactly one
// worker with exclusive use of that worker's shard.  A full queue fails
// submission immediately (ErrOverloaded) instead of queueing without
// bound, which is what keeps p99 latency finite under overload: excess
// requests are shed at the door, not parked.  A panicking closure is
// recovered on the worker — the shard's breaker counts it, and enough
// consecutive panics quarantine just that shard while the rest of the
// pool keeps serving.
type pool struct {
	cfg      poolConfig
	tasks    chan *task
	stop     chan struct{}
	breakers []*breaker
	wg       sync.WaitGroup
	once     sync.Once
}

// newPool starts cfg.workers workers, each owning a Shard sized for an
// n-node graph.
func newPool(cfg poolConfig) *pool {
	p := &pool{
		cfg:      cfg,
		tasks:    make(chan *task, cfg.queue),
		stop:     make(chan struct{}),
		breakers: make([]*breaker, cfg.workers),
	}
	for i := 0; i < cfg.workers; i++ {
		shard := &Shard{ID: i, Scratch: route.NewScratch(cfg.n)}
		br := newBreaker(cfg.breakerThreshold, cfg.breakerCooldown)
		p.breakers[i] = br
		p.wg.Add(1)
		go p.worker(shard, br)
	}
	return p
}

// worker is the shard's serving loop.  While the shard's breaker is open
// the worker refuses to pull tasks — they stay on the shared queue for
// healthy shards — and polls for the half-open transition.
func (p *pool) worker(shard *Shard, br *breaker) {
	defer p.wg.Done()
	poll := p.cfg.breakerCooldown / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	for {
		if !br.Allow() {
			select {
			case <-p.stop:
				return
			case <-time.After(poll):
			}
			continue
		}
		t, ok := <-p.tasks
		if !ok {
			return
		}
		p.runTask(shard, br, t)
	}
}

// runTask executes one task under the shard's panic shield and breaker.
// Fault hooks fire here — a stalled shard sleeps, a poisoned shard panics
// — precisely because this is the layer the robustness machinery guards.
func (p *pool) runTask(shard *Shard, br *breaker, t *task) {
	defer close(t.done)
	panicked := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
			}
		}()
		if d := p.cfg.inj.StallDelay(shard.ID); d > 0 {
			time.Sleep(d)
		}
		if p.cfg.inj.InjectPanic(shard.ID) {
			panic("fault: injected worker panic")
		}
		t.run(shard)
	}()
	if panicked {
		t.err = ErrPanicked
		// The scratch may hold a half-finished trial; rebuild it so the
		// shard's next answer starts clean.
		shard.Scratch = route.NewScratch(p.cfg.n)
		if p.cfg.onPanic != nil {
			p.cfg.onPanic(shard)
		}
		br.Fail()
		return
	}
	br.Success()
}

// TryDo runs fn on some worker's shard and waits for it to finish or for
// ctx to end.  It never blocks on a full queue: submission either lands in
// the bounded queue or fails with ErrOverloaded on the spot.  ErrPanicked
// reports that fn started but died; the worker survived it.
func (p *pool) TryDo(ctx context.Context, fn func(*Shard)) error {
	if ctx.Err() != nil {
		return ErrExpired
	}
	t := &task{run: fn, done: make(chan struct{})}
	select {
	case p.tasks <- t:
	default:
		return ErrOverloaded
	}
	select {
	case <-t.done:
		return t.err
	case <-ctx.Done():
		return ErrTimedOut
	}
}

// TrippedBreakers counts shards currently quarantined or probing.
func (p *pool) TrippedBreakers() int {
	n := 0
	for _, br := range p.breakers {
		if br.Tripped() {
			n++
		}
	}
	return n
}

// Close stops the workers after the queued tasks drain; tasks stranded by
// quarantined workers fail with ErrClosed so no TryDo caller blocks
// forever.  TryDo must not be called after Close.
func (p *pool) Close() {
	p.once.Do(func() {
		close(p.stop)
		close(p.tasks)
	})
	p.wg.Wait()
	for t := range p.tasks {
		t.err = ErrClosed
		close(t.done)
	}
}

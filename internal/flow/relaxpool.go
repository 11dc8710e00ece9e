package flow

import (
	"runtime"
	"sync/atomic"
)

// relaxPool runs the sharded row-relaxation scans of one Transport's repair
// searches (cancelImprovingCycle) on a set of persistent workers; the
// bounded shortest-path searches never dispatch, since their price-first
// scan of a row is cheaper than the handoff. A repair search settles on the
// order of n rows and each settled wide row dispatches one ~m-cell scan — a
// few microseconds of work — so the per-dispatch cost has to stay in the
// ~100ns range for the sharding to win: spawning goroutines (a microsecond
// each) or waking parked ones (a futex round trip) once per row would eat
// the parallel gain. Workers therefore spin briefly on the dispatch
// sequence number, staying hot across the few-microsecond gaps between
// dispatches within one search, and park on a channel only when the spin
// budget runs out (between repair searches) — one wake-up per worker per
// search instead of one per row.
//
// Memory-model notes: the dispatcher writes the scan payload, then publishes
// it with the atomic seq increment; a worker's acquiring seq load therefore
// observes the payload. Each worker's relaxBufs writes are published by its
// atomic done increment and observed by the dispatcher's done loads, so the
// dispatcher reads complete buffers after the barrier. While no scan is
// dispatched, workers touch nothing but the pool's atomics — the owning
// goroutine may freely mutate the Transport between dispatches.
type relaxPool struct {
	t       *Transport
	workers int

	seq  atomic.Uint32 // dispatch sequence; incremented to publish a scan
	done atomic.Int32  // worker scans completed for the current dispatch
	stop atomic.Bool

	// Scan payload, valid for the dispatch published by the latest seq.
	x      int32
	bd, ur float64
	lo, hi int32

	parked []atomic.Bool   // parked[wi]: worker wi is blocked on wake[wi]
	wake   []chan struct{} // capacity-1 park channels
}

// relaxSpinBudget bounds how long an idle worker spins on seq before
// parking. The budget only needs to cover the serial work between two row
// settles of one search (heap pops plus the label replay, single-digit
// microseconds); parking promptly after that keeps idle workers off the CPU
// between searches.
const relaxSpinBudget = 1 << 13

// startRelaxPool spins up the sharded-relaxation workers for the repair
// searches of one repairSinkDual, if the transport wants them.
func (t *Transport) startRelaxPool() {
	w := t.searchWorkers()
	if w <= 1 {
		return
	}
	if cap(t.relaxBufs) < w {
		t.relaxBufs = make([][]relaxCand, w)
	}
	t.relaxBufs = t.relaxBufs[:w]
	p := &relaxPool{
		t:       t,
		workers: w,
		parked:  make([]atomic.Bool, w),
		wake:    make([]chan struct{}, w),
	}
	for wi := 1; wi < w; wi++ {
		p.wake[wi] = make(chan struct{}, 1)
		go p.work(wi)
	}
	t.relax = p
}

// stopRelaxPool shuts the workers down and detaches the pool. Pool
// goroutines never outlive the repair that started them, so an abandoned
// Transport leaks nothing.
func (t *Transport) stopRelaxPool() {
	p := t.relax
	if p == nil {
		return
	}
	t.relax = nil
	p.stop.Store(true)
	for wi := 1; wi < p.workers; wi++ {
		if p.parked[wi].CompareAndSwap(true, false) {
			select {
			case p.wake[wi] <- struct{}{}:
			default:
			}
		}
	}
}

// dispatch publishes one row scan to the workers, runs shard 0 on the
// calling goroutine, and returns once every shard has filled its relaxBufs
// entry.
func (p *relaxPool) dispatch(x int32, bd, ur float64, lo, hi int32) {
	p.x, p.bd, p.ur, p.lo, p.hi = x, bd, ur, lo, hi
	p.done.Store(0)
	p.seq.Add(1)
	for wi := 1; wi < p.workers; wi++ {
		if p.parked[wi].CompareAndSwap(true, false) {
			select {
			case p.wake[wi] <- struct{}{}:
			default: // a stale token is already buffered; it will wake the worker
			}
		}
	}
	p.t.relaxScan(0, p.workers, x, bd, ur, lo, hi)
	for p.done.Load() < int32(p.workers-1) {
		runtime.Gosched()
	}
}

// work is the worker loop: spin on seq for the next dispatch, run the
// worker's shard, count it done; park when the spin budget runs out.
func (p *relaxPool) work(wi int) {
	last := uint32(0)
	for {
		s := p.seq.Load()
		if s == last {
			for i := 0; s == last && i < relaxSpinBudget; i++ {
				if p.stop.Load() {
					return
				}
				if i&255 == 255 {
					runtime.Gosched()
				}
				s = p.seq.Load()
			}
			if s == last {
				// Park. The seq re-check after publishing parked closes the
				// race with a concurrent dispatch: if the dispatcher's seq
				// increment preceded our parked store, we see it here and skip
				// the block; otherwise the dispatcher's CAS sees parked and
				// sends a token. A token can go stale only on this abort path,
				// and the next blocking receive consumes it as a spurious
				// wake-up, so at most one is ever buffered.
				p.parked[wi].Store(true)
				if p.seq.Load() == last && !p.stop.Load() {
					<-p.wake[wi]
				}
				p.parked[wi].Store(false)
				continue
			}
		}
		if p.stop.Load() {
			return
		}
		last = s
		p.t.relaxScan(wi, p.workers, p.x, p.bd, p.ur, p.lo, p.hi)
		p.done.Add(1)
	}
}

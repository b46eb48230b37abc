package engine

import (
	"runtime"
	"sync"
)

// workerPool runs one long-lived goroutine per worker; each iteration's
// fan-out is one channel send per worker. Worker goroutines only touch
// their own worker's state plus the table's concurrent-phase API, so the
// result does not depend on scheduling.
type workerPool struct {
	start   []chan struct{}
	done    chan int
	panics  []any
	pending int
}

// newWorkerPool starts the per-worker goroutines. They live until stop.
func newWorkerPool(workers []*worker) *workerPool {
	p := &workerPool{
		start:  make([]chan struct{}, len(workers)),
		done:   make(chan int, len(workers)),
		panics: make([]any, len(workers)),
	}
	for i, w := range workers {
		p.start[i] = make(chan struct{}, 1)
		go func(w *worker, start chan struct{}) {
			for range start {
				func() {
					// A panic (an invariant checker in panic mode, say) is
					// parked and re-raised by wait on the trainer goroutine,
					// so the failure surfaces deterministically.
					defer func() { p.panics[w.id] = recover() }()
					w.runIteration()
				}()
				p.done <- w.id
			}
		}(w, p.start[i])
	}
	return p
}

// dispatch signals worker i to run one iteration.
func (p *workerPool) dispatch(i int) {
	p.start[i] <- struct{}{}
	p.pending++
}

// wait blocks until every dispatched worker finished its iteration, then
// re-raises the first worker panic, if any, in worker order.
func (p *workerPool) wait() {
	for p.pending > 0 {
		<-p.done
		p.pending--
	}
	for i, v := range p.panics {
		if v != nil {
			p.panics[i] = nil
			panic(v)
		}
	}
}

// stop terminates the pool goroutines. Idempotent per channel close rules:
// callers invoke it exactly once (the trainer defers it in Run).
func (p *workerPool) stop() {
	for _, c := range p.start {
		close(c)
	}
}

// denseChunkMin is the flattened-parameter length below which the dense
// sweeps stay serial: goroutine hand-off costs more than it saves on the
// small models the tests use.
const denseChunkMin = 4096

// runChunks splits [0, n) into par contiguous chunks and runs fn on them
// concurrently, re-raising the first chunk panic on the caller. fn must
// touch only its own [a, b) range.
func runChunks(n, par int, fn func(a, b int)) {
	if par > n {
		par = n
	}
	var wg sync.WaitGroup
	panics := make([]any, par)
	chunk := (n + par - 1) / par
	for g := 0; g < par; g++ {
		a := g * chunk
		b := a + chunk
		if b > n {
			b = n
		}
		if a >= b {
			break
		}
		wg.Add(1)
		go func(g, a, b int) {
			defer wg.Done()
			defer func() { panics[g] = recover() }()
			fn(a, b)
		}(g, a, b)
	}
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
}

func maxParallelism() int {
	p := runtime.GOMAXPROCS(0)
	if p < 1 {
		p = 1
	}
	return p
}

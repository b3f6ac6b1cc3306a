package main

import (
	"sync/atomic"
	"time"
)

// traceBlock is the length of the blocks a traced run alternates
// between: tracing is on for one block, off for the next.
const traceBlock = time.Second

// tracer switches every kind of tracing together: the ctl call spans
// of transactions, the Store.Append spans of every site and the TM
// queue sampler. From the start of the measured window it is on in
// even blocks and off in odd ones; outside the window it is off. The
// transactions due in untraced blocks run under the same load as the
// traced ones, with none of tracing's costs, so trace.overhead_frac
// can compare the two.
type tracer struct {
	base atomic.Pointer[time.Time] // start of the measured window; nil outside it
	q    *queueSampler
}

// tracedAt reports whether offset at into the measured window falls
// in a traced block.
func tracedAt(at time.Duration) bool { return at >= 0 && (at/traceBlock)%2 == 0 }

// on reports whether tracing is on at t. A nil tracer never traces.
func (tr *tracer) on(t time.Time) bool {
	if tr == nil {
		return false
	}
	b := tr.base.Load()
	return b != nil && tracedAt(t.Sub(*b))
}

// start opens the measured window at base and starts sampling the
// TM queues of cl's sites in traced blocks.
func (tr *tracer) start(base time.Time, cl *cluster) {
	if tr == nil {
		return
	}
	tr.base.Store(&base)
	tr.q = startQueueSampler(cl, base)
}

// stop closes the measured window and returns the mean and maximum
// TM queue depth sampled.
func (tr *tracer) stop() (qmean, qmax float64) {
	if tr == nil || tr.q == nil {
		return 0, 0
	}
	tr.base.Store(nil)
	return tr.q.stop()
}

// queueSampler samples every site's TM queue depth each millisecond
// of a traced block and sleeps through untraced ones.
type queueSampler struct {
	stopc, done chan struct{}
	sum, n, max int
}

func startQueueSampler(cl *cluster, base time.Time) *queueSampler {
	q := &queueSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	//lint:rawgo the sampler observes the real runtime from outside
	go func() {
		defer close(q.done)
		tick := time.NewTimer(0) //lint:walltime samples on the real clock
		defer tick.Stop()
		for {
			select {
			case <-q.stopc:
				return
			case <-tick.C:
			}
			at := now().Sub(base)
			if !tracedAt(at) {
				tick.Reset(traceBlock - at%traceBlock)
				continue
			}
			for _, n := range cl.nodes {
				d := n.TM().QueueDepth()
				q.sum += d
				q.n++
				if d > q.max {
					q.max = d
				}
			}
			tick.Reset(time.Millisecond)
		}
	}()
	return q
}

// stop ends sampling and returns the mean and maximum depth seen.
func (q *queueSampler) stop() (mean, max float64) {
	close(q.stopc)
	<-q.done
	return div(float64(q.sum), float64(q.n)), float64(q.max)
}

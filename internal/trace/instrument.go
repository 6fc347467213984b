package trace

import "github.com/resilience-models/dvf/internal/metrics"

// Instrumented wraps a consumer so every reference delivered to it is
// tallied into sink under prefix: <prefix>.refs, <prefix>.bytes and
// <prefix>.writes counters. This is how kernel trace generation and trace
// replay are observed without touching the kernels themselves. When next
// is a PeriodConsumer the wrapper is one too and forwards each period
// boundary, so an instrumented run stops where the bare one would; the
// counters then hold the references delivered, not those the kernel
// made (RunInfo.Refs). When next is a StridedConsumer the wrapper is one
// too: it tallies each group once and forwards it, so an instrumented
// run takes the kernels' grouped path as the bare one does. A nil sink
// returns next unchanged, so the uninstrumented path keeps its exact
// call graph; a nil next with a live sink yields a pure counting
// consumer.
func Instrumented(next Consumer, sink metrics.Sink, prefix string) Consumer {
	if sink == nil {
		return next
	}
	c := &instrumented{
		next:   next,
		refs:   sink.Counter(prefix + ".refs"),
		bytes:  sink.Counter(prefix + ".bytes"),
		writes: sink.Counter(prefix + ".writes"),
	}
	p, period := next.(PeriodConsumer)
	s, strided := next.(StridedConsumer)
	switch {
	case period && strided:
		return instrumentedBoth{instrumentedGroups{c, s}, p}
	case period:
		return instrumentedPeriods{c, p}
	case strided:
		return instrumentedGroups{c, s}
	}
	return c
}

// instrumented is the consumer Instrumented returns.
type instrumented struct {
	next                Consumer
	refs, bytes, writes *metrics.Counter
}

// Access tallies r and passes it on.
func (c *instrumented) Access(r Ref, owner int32) {
	c.refs.Inc()
	c.bytes.Add(int64(r.Size))
	if r.Write {
		c.writes.Inc()
	}
	if c.next != nil {
		c.next.Access(r, owner)
	}
}

// instrumentedPeriods is instrumented over a PeriodConsumer.
type instrumentedPeriods struct {
	*instrumented
	period PeriodConsumer
}

// EndPeriod forwards the boundary.
func (c instrumentedPeriods) EndPeriod(refs int64) bool { return c.period.EndPeriod(refs) }

// instrumentedGroups is instrumented over a StridedConsumer.
type instrumentedGroups struct {
	*instrumented
	strided StridedConsumer
}

// AccessStrided tallies the group's steps*len(refs) references and
// passes the group on.
func (c instrumentedGroups) AccessStrided(refs []Ref, owners []int32, strides []int64, steps int) {
	var nbytes, nwrites int64
	for _, r := range refs {
		nbytes += int64(r.Size)
		if r.Write {
			nwrites++
		}
	}
	n := int64(steps)
	c.refs.Add(n * int64(len(refs)))
	c.bytes.Add(n * nbytes)
	c.writes.Add(n * nwrites)
	c.strided.AccessStrided(refs, owners, strides, steps)
}

// instrumentedBoth is instrumented over a consumer that is both a
// StridedConsumer and a PeriodConsumer, as cache.RefConsumer is.
type instrumentedBoth struct {
	instrumentedGroups
	period PeriodConsumer
}

// EndPeriod forwards the boundary.
func (c instrumentedBoth) EndPeriod(refs int64) bool { return c.period.EndPeriod(refs) }

// InstrumentedBatch is Instrumented for the batched replay path: the same
// <prefix>.refs/.bytes/.writes counters, tallied once per batch from the
// packed meta words instead of once per reference. A nil sink returns next
// unchanged; a nil next with a live sink yields a pure counting consumer.
func InstrumentedBatch(next BatchConsumer, sink metrics.Sink, prefix string) BatchConsumer {
	if sink == nil {
		return next
	}
	refs := sink.Counter(prefix + ".refs")
	bytes := sink.Counter(prefix + ".bytes")
	writes := sink.Counter(prefix + ".writes")
	return BatchConsumerFunc(func(b *RefBatch) {
		var nbytes, nwrites int64
		for _, m := range b.Metas {
			size, write, _ := UnpackMeta(m)
			nbytes += int64(size)
			if write {
				nwrites++
			}
		}
		refs.Add(int64(b.Len()))
		bytes.Add(nbytes)
		writes.Add(nwrites)
		if next != nil {
			next.AccessBatch(b)
		}
	})
}

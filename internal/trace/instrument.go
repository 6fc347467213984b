package trace

import "github.com/resilience-models/dvf/internal/metrics"

// Instrumented wraps a consumer so every reference delivered to it is
// tallied into sink under prefix: <prefix>.refs, <prefix>.bytes and
// <prefix>.writes counters. This is how kernel trace generation and trace
// replay are observed without touching the kernels themselves. When next
// is a GroupConsumer the wrapper is one too: it tallies each strided
// group once and forwards it, and forwards each period boundary, so an
// instrumented run takes the kernels' grouped path and stops where the
// bare one would; the counters then hold the references delivered, not
// those the kernel made (RunInfo.Refs). A nil sink returns next
// unchanged, so the uninstrumented path keeps its exact call graph; a
// nil next with a live sink yields a pure counting consumer.
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
	if g, ok := next.(GroupConsumer); ok {
		return instrumentedGroups{c, g}
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

// instrumentedGroups is instrumented over a GroupConsumer.
type instrumentedGroups struct {
	*instrumented
	group GroupConsumer
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
	c.group.AccessStrided(refs, owners, strides, steps)
}

// EndPeriod forwards the boundary.
func (c instrumentedGroups) EndPeriod(refs int64) bool { return c.group.EndPeriod(refs) }

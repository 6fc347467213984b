package trace

import "github.com/resilience-models/dvf/internal/metrics"

// Instrumented wraps a consumer so every reference delivered to it is
// tallied into sink under prefix: <prefix>.refs, <prefix>.bytes and
// <prefix>.writes counters. This is how kernel trace generation and trace
// replay are observed without touching the kernels themselves. The
// tallies are kept in plain fields and published to the counters every
// publishEvery references, at each period boundary and at Flush, which
// the caller makes once the stream ends. When next is a GroupConsumer
// the wrapper is one too: it tallies each strided group once and
// forwards it, and forwards each period boundary, so an instrumented
// run takes the kernels' grouped path and stops where the bare one
// would; the counters then hold the references delivered, not those the
// kernel made (RunInfo.Refs). A nil sink returns next unchanged, so the
// uninstrumented path keeps its exact call graph; a nil next with a live
// sink yields a pure counting consumer.
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

// Flush publishes what an Instrumented consumer has tallied since it
// last published. It does nothing to any other consumer.
func Flush(c Consumer) {
	if f, ok := c.(interface{ publish() }); ok {
		f.publish()
	}
}

// publishEvery is how many references an Instrumented consumer tallies
// between publishes: three atomic adds per batch rather than up to three
// per reference.
const publishEvery = 4096

// instrumented is the consumer Instrumented returns.
type instrumented struct {
	next                Consumer
	refs, bytes, writes *metrics.Counter
	// The tallies since the last publish.
	nrefs, nbytes, nwrites int64
}

// Access tallies r and passes it on.
func (c *instrumented) Access(r Ref, owner int32) {
	c.nrefs++
	c.nbytes += int64(r.Size)
	if r.Write {
		c.nwrites++
	}
	if c.nrefs >= publishEvery {
		c.publish()
	}
	if c.next != nil {
		c.next.Access(r, owner)
	}
}

// publish adds the tallies to the counters and clears them.
func (c *instrumented) publish() {
	if c.nrefs == 0 {
		return
	}
	c.refs.Add(c.nrefs)
	c.bytes.Add(c.nbytes)
	c.writes.Add(c.nwrites)
	c.nrefs, c.nbytes, c.nwrites = 0, 0, 0
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
	c.nrefs += n * int64(len(refs))
	c.nbytes += n * nbytes
	c.nwrites += n * nwrites
	if c.nrefs >= publishEvery {
		c.publish()
	}
	c.group.AccessStrided(refs, owners, strides, steps)
}

// EndPeriod publishes the tallies and forwards the boundary.
func (c instrumentedGroups) EndPeriod(refs int64) bool {
	c.publish()
	return c.group.EndPeriod(refs)
}

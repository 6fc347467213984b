package trace_test

import (
	"bytes"
	"fmt"
	"log"

	"github.com/resilience-models/dvf/internal/trace"
)

// Example_instrumentation shows the source-level Pin substitute: a
// registry assigns disjoint simulated addresses, and every element access
// reaches the consumer.
func Example_instrumentation() {
	reg := trace.NewRegistry()
	a := reg.Alloc("A", 8*100)
	var reads, writes int
	mem := trace.NewMemory(reg, trace.ConsumerFunc(func(r trace.Ref, _ int32) {
		if r.Write {
			writes++
		} else {
			reads++
		}
	}))

	for i := 0; i < 100; i++ {
		mem.LoadN(a, i, 8)
	}
	mem.StoreN(a, 0, 8)

	fmt.Printf("reads: %d, writes: %d\n", reads, writes)
	// Output:
	// reads: 100, writes: 1
}

// Example_roundTrip captures a reference stream to the binary container
// format and replays it — the capture-once, simulate-many workflow.
func Example_roundTrip() {
	reg := trace.NewRegistry()
	a := reg.Alloc("A", 64)

	var buf bytes.Buffer
	w := trace.NewWriterV2(&buf, reg)
	mem := trace.NewMemory(reg, w)
	mem.LoadN(a, 3, 8)
	mem.StoreN(a, 4, 8)
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	tr, err := trace.DecodeV2(buf.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	refs := 0
	tr.Replay(trace.ConsumerFunc(func(trace.Ref, int32) { refs++ }))
	fmt.Printf("replayed %d references over %d region(s): %s\n",
		refs, len(tr.Regions), tr.Regions[0].Name)
	// Output:
	// replayed 2 references over 1 region(s): A
}

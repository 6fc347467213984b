package trace

// RefBatch is a struct-of-arrays block of memory references, the unit the
// batched replay hot path moves around instead of one Ref at a time. Two
// parallel uint64 columns hold the stream: Addrs carries the simulated
// virtual addresses, Metas packs each reference's size, owner and
// read/write flag into a single word (see PackMeta). The layout is chosen
// to be exactly the column layout of the v2 on-disk trace container, so a
// decoded v2 trace can hand out RefBatch views that alias the mapped file
// with zero copying, and a batch produced by instrumentation can be
// written to disk with two bulk column writes.
//
// A RefBatch is a pair of slice headers: slicing (Slice) and passing by
// value are cheap and share the backing arrays.
type RefBatch struct {
	Addrs []uint64 // simulated virtual addresses
	Metas []uint64 // packed size/owner/write words, same length as Addrs
}

// Meta-word layout: bit 0 is the write flag, bits 1..31 hold the reference
// size (31 bits), bits 32..63 hold the owner as a uint32 bit pattern. The
// size domain is capped at 2^31-1 bytes per reference — every producer in
// this repository emits element-sized references of at most a few dozen
// bytes, and a single reference touching 2 GiB would be a bug upstream —
// so PackMeta panics rather than silently truncating.
const (
	metaWriteBit  = 1
	metaSizeShift = 1
	metaSizeBits  = 31
	// MaxBatchRefSize is the largest reference size a meta word (and hence
	// the v2 trace encoding) can represent.
	MaxBatchRefSize = 1<<metaSizeBits - 1
	metaOwnerShift  = 32
)

// DefaultBatch is the replay batch size: large enough that per-batch
// overhead vanishes from profiles, small enough that one batch's columns
// (~64 KB) stay cache-resident.
const DefaultBatch = 4096

// PackMeta packs one reference's size, write flag and owner into a meta
// word. Sizes above MaxBatchRefSize panic: the batch layout (and the v2
// trace format built on it) reserves 31 bits for the size.
//
//dvf:hotpath
func PackMeta(size uint32, write bool, owner int32) uint64 {
	if size > MaxBatchRefSize {
		panic("trace: reference size exceeds the RefBatch meta-word size domain")
	}
	m := uint64(uint32(owner))<<metaOwnerShift | uint64(size)<<metaSizeShift
	if write {
		m |= metaWriteBit
	}
	return m
}

// UnpackMeta is the inverse of PackMeta.
//
//dvf:hotpath
func UnpackMeta(m uint64) (size uint32, write bool, owner int32) {
	return uint32(m>>metaSizeShift) & MaxBatchRefSize, m&metaWriteBit != 0, int32(uint32(m >> metaOwnerShift))
}

// Len returns the number of references in the batch.
//
//dvf:hotpath
func (b *RefBatch) Len() int { return len(b.Addrs) }

// Reset empties the batch, keeping the backing arrays.
//
//dvf:hotpath
func (b *RefBatch) Reset() {
	b.Addrs = b.Addrs[:0]
	b.Metas = b.Metas[:0]
}

// Append adds one reference to the batch. A batch allocated with spare
// capacity appends without allocating; otherwise (e.g. a BatchRecorder)
// the columns grow amortized like any slice.
//
//dvf:hotpath
func (b *RefBatch) Append(r Ref, owner int32) {
	//dvf:allow hotalloc growth is amortized and happens only on batches built without spare capacity, such as recorder batches off the replay path
	b.Addrs = append(b.Addrs, r.Addr)
	//dvf:allow hotalloc same amortized-growth argument as the address column
	b.Metas = append(b.Metas, PackMeta(r.Size, r.Write, owner))
}

// At returns the i-th reference and its owner.
//
//dvf:hotpath
func (b *RefBatch) At(i int) (Ref, int32) {
	size, write, owner := UnpackMeta(b.Metas[i])
	return Ref{Addr: b.Addrs[i], Size: size, Write: write}, owner
}

// Slice returns the [lo, hi) sub-batch as a view sharing the backing
// arrays. The view's capacity is clamped to hi so an Append on the view
// cannot clobber the parent's tail.
//
//dvf:hotpath
func (b *RefBatch) Slice(lo, hi int) RefBatch {
	return RefBatch{Addrs: b.Addrs[lo:hi:hi], Metas: b.Metas[lo:hi:hi]}
}

// Each invokes fn for every reference in order — the bridge from a batch
// back to per-reference consumers.
//
//dvf:hotpath
func (b *RefBatch) Each(fn func(Ref, int32)) {
	for i := range b.Addrs {
		size, write, owner := UnpackMeta(b.Metas[i])
		//dvf:allow hotalloc fn is the caller-supplied per-reference consumer; every in-repo consumer fed through Each is itself hotpath-verified
		fn(Ref{Addr: b.Addrs[i], Size: size, Write: write}, owner)
	}
}

// BatchConsumer is the block-granular sibling of Consumer: implementations
// receive whole reference batches. The batched replay paths (TraceFile.Replay
// into Simulator.AccessBatch) feed them directly, skipping the
// per-reference interface call.
type BatchConsumer interface {
	AccessBatch(b *RefBatch)
}

// BatchConsumerFunc adapts a plain function to the BatchConsumer
// interface, mirroring ConsumerFunc.
type BatchConsumerFunc func(*RefBatch)

// AccessBatch invokes the function.
//
//dvf:hotpath
func (f BatchConsumerFunc) AccessBatch(b *RefBatch) {
	//dvf:allow hotalloc f is the adapted caller function; the adapter itself allocates nothing, and hot in-repo targets are hotpath-verified at their declarations
	f(b)
}

// BatchRecorder is a Consumer that stores the full stream in
// struct-of-arrays form, ready for batched replay or v2 encoding. The
// zero value is ready to use.
type BatchRecorder struct {
	Batch RefBatch
}

// Access appends the reference to the in-memory columns.
//
//dvf:hotpath
func (br *BatchRecorder) Access(r Ref, owner int32) {
	br.Batch.Append(r, owner)
}

// AccessBatch bulk-appends a whole batch.
//
//dvf:hotpath
func (br *BatchRecorder) AccessBatch(b *RefBatch) {
	//dvf:allow hotalloc recorder columns grow amortized like any slice; recording is bounded by the stream length, and replay (the measured path) never appends here
	br.Batch.Addrs = append(br.Batch.Addrs, b.Addrs...)
	//dvf:allow hotalloc same amortized-growth argument as the address column
	br.Batch.Metas = append(br.Batch.Metas, b.Metas...)
}

// Len returns the number of recorded references.
//
//dvf:hotpath
func (br *BatchRecorder) Len() int { return br.Batch.Len() }

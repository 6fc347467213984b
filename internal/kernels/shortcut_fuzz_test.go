package kernels

import (
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
)

// fuzzGeometry picks a cache for the template fuzz targets: geom below
// 9 is one of lineRunGeometries (the Table IV caches, a direct-mapped,
// a one-set and a 4-byte-line one); any other geom builds a geometry of
// 1 + assoc%16 ways, 2^(setsLog%9) sets and lines of
// 2^(2+lineLog%lineLogs) bytes, from 4.
func fuzzGeometry(geom, assoc, setsLog, lineLog, lineLogs uint8) cache.Config {
	if geoms := lineRunGeometries(); int(geom) < len(geoms) {
		return geoms[geom]
	}
	return cache.Config{
		Name:          "fuzzed",
		Associativity: 1 + int(assoc%16),
		Sets:          1 << (setsLog % 9),
		LineSize:      1 << (2 + lineLog%lineLogs),
	}
}

// FuzzCGPTemplateVsElementWalk checks the count of p's template misses
// against the element walk that simulates every reference of every
// iteration on the whole cache: n is 2 + n%300, the iterations
// 1 + iters%4, and a fuzzed geometry has lines of 4 bytes to 64 KiB,
// past the regions' 4096-byte alignment, where structures share blocks.
func FuzzCGPTemplateVsElementWalk(f *testing.F) {
	for geom := range len(lineRunGeometries()) {
		f.Add(uint16(98), uint8(2), uint8(geom), uint8(0), uint8(0), uint8(0)) // n=100, every named geometry
	}
	f.Add(uint16(35), uint8(3), uint8(200), uint8(0), uint8(2), uint8(11))  // 8 KiB lines, one way, 4 sets
	f.Add(uint16(299), uint8(1), uint8(200), uint8(1), uint8(0), uint8(14)) // 64 KiB lines, one set
	f.Add(uint16(60), uint8(3), uint8(200), uint8(3), uint8(1), uint8(8))   // 1 KiB lines, 4 ways, 2 sets
	f.Add(uint16(40), uint8(1), uint8(200), uint8(0), uint8(0), uint8(0))   // 4-byte lines, one set of one way
	f.Add(uint16(35), uint8(2), uint8(200), uint8(0), uint8(0), uint8(11))  // 8 KiB lines, one set of one way
	f.Fuzz(func(t *testing.T, n16 uint16, iters, geom, assoc, setsLog, lineLog uint8) {
		requireSameCG(t, 2+int(n16%300), 1+int(iters%4), fuzzGeometry(geom, assoc, setsLog, lineLog, 15))
	})
}

// FuzzMGPlaneShiftVsElementWalk checks MG's template walk, with its
// fits-in-cache count and its plane translation, against the element
// walk: the grid is 8 << (size%3) on a side, with 1 + cycles%2 V-cycles
// and 1 + smooth%3 sweeps.
func FuzzMGPlaneShiftVsElementWalk(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))   // n=8 on Small
	f.Add(uint8(0), uint8(1), uint8(1), uint8(2), uint8(0), uint8(0), uint8(0))   // n=8 on 16KB
	f.Add(uint8(1), uint8(1), uint8(1), uint8(3), uint8(0), uint8(0), uint8(0))   // n=16 on 128KB
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))   // n=32 on Small
	f.Add(uint8(2), uint8(0), uint8(0), uint8(2), uint8(0), uint8(0), uint8(0))   // n=32 on 16KB
	f.Add(uint8(1), uint8(1), uint8(2), uint8(6), uint8(0), uint8(0), uint8(0))   // direct-mapped
	f.Add(uint8(1), uint8(0), uint8(1), uint8(7), uint8(0), uint8(0), uint8(0))   // one-set
	f.Add(uint8(1), uint8(0), uint8(0), uint8(8), uint8(0), uint8(0), uint8(0))   // 4-byte lines
	f.Add(uint8(0), uint8(0), uint8(0), uint8(100), uint8(3), uint8(4), uint8(8)) // 1024-byte lines
	f.Fuzz(func(t *testing.T, size, cycles, smooth, geom, assoc, setsLog, lineLog uint8) {
		mg := &MG{N: 8 << (size % 3), Cycles: 1 + int(cycles%2), Smooth: 1 + int(smooth%3)}
		requireSameMG(t, mg, fuzzGeometry(geom, assoc, setsLog, lineLog, 9))
	})
}

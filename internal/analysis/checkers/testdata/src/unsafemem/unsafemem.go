// Package unsafemem seeds every finding class of the unsafemem checker:
// unguarded unsafe.Slice constructions and naked view escapes (package
// var, channel send, exported return) — plus the guarded and
// unexported shapes that must stay silent.
package unsafemem

import "unsafe"

// unguarded reinterprets without the alignment precondition.
func unguarded(b []byte, n int) {
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n) // want `unsafe.Slice aliasing construction is not dominated by an alignment guard`
	_ = words
}

// guarded is the sanctioned construction: aligned or fall back.
func guarded(b []byte, n int) []uint64 {
	if uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	return nil
}

// guardedCompound keeps the guard inside a larger condition.
func guardedCompound(b []byte, n int) []uint64 {
	if n > 0 && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	return nil
}

// global is a naked escape target.
var global []uint64

// escapeToGlobal parks a view where no lifetime ties it to the backing
// bytes.
func escapeToGlobal(b []byte, n int) {
	if uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		global = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n) // want `unsafe.Slice view stored in package-level variable global`
	}
}

// escapeToChan ships the view to an unknown consumer.
func escapeToChan(b []byte, n int, ch chan []uint64) {
	if uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		ch <- unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n) // want `unsafe.Slice view sent on a channel`
	}
}

// View returns a naked view from an exported function: the caller has
// no idea the slice dies with b.
func View(b []byte, n int) []uint64 {
	if uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n) // want `exported function View returns a naked unsafe.Slice view`
	}
	return nil
}

// view (unexported) may return the view: its callers are in this
// package, inside the region's scope.
func view(b []byte, n int) []uint64 {
	if uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	return nil
}

// Fixture standing in for the real snapfile package (final path segment
// "snapfile" triggers the format-version pin). The version deliberately
// disagrees with pinnedSnapfileVersion; the casts exercise the alignment
// guard requirement.
package snapfile

import "unsafe"

const formatVersion = 3 // want "formatVersion is 3 but unsafeslab pins version 2"

// badCast reconstructs a pointer with no alignment guard anywhere in the
// function.
func badCast(b []byte) *int32 {
	return (*int32)(unsafe.Pointer(unsafe.SliceData(b))) // want "without an alignment guard"
}

// goodCast guards alignment before both the pointer conversion and the
// slice reconstruction.
func goodCast(b []byte, n int) []int32 {
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%unsafe.Alignof(int32(0)) != 0 {
		return nil
	}
	return unsafe.Slice((*int32)(p), n)
}

// Fixture: instantiation discipline for unsafe-reconstructing generics and
// the FromSlabs retain pin.
package generic

import (
	"unsafe"

	"disasso/internal/lint/testdata/src/unsafeslab/query"
)

// unpinned has no entry in the analyzer's layout pins.
type unpinned struct {
	A, B int
}

// castSlice mirrors the real snapfile helper: generic, unsafe, guarded.
func castSlice[T any](b []byte, n int) ([]T, bool) {
	if n == 0 {
		return nil, true
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%unsafe.Alignof(*new(T)) != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(p), n), true
}

func use(b []byte) {
	_, _ = castSlice[int32](b, 1)          // basic element types are fine
	_, _ = castSlice[query.Estimate](b, 1) // pinned type: fine
	_, _ = castSlice[unpinned](b, 1)       // want "castSlice instantiated with .*unpinned, whose layout is not pinned"

	//lint:ignore unsafeslab fixture justification: exercised by the suppression test
	_, _ = castSlice[unpinned](b, 2)
}

// FromSlabs mirrors the real index constructor's retain-pin contract.
func FromSlabs(terms []int32, retain any) int {
	_ = retain
	return len(terms)
}

func build(terms []int32, file any) {
	_ = FromSlabs(terms, file)
	_ = FromSlabs(terms, nil) // want "FromSlabs called with a nil retain pin"
}

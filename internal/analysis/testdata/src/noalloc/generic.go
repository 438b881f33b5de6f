package noalloc

// The walk follows generic code: calls to a generic function — type
// arguments inferred or instantiated explicitly — and to a method of a
// generic type resolve to their declarations, so an allocation inside any
// of them is flagged with root attribution.

type stack[T any] struct{ items []T }

func (s *stack[T]) push(v T) {
	s.items = append(s.items, v) // want `append may grow its backing array.*reached from //s2c2:noalloc genericRoot`
}

func fill[T any](n int) []T {
	return make([]T, n) // want `make allocates.*reached from //s2c2:noalloc genericRoot`
}

func dup[T any](src []T) []T {
	out := make([]T, len(src)) // want `make allocates.*reached from //s2c2:noalloc genericRoot`
	copy(out, src)
	return out
}

//s2c2:noalloc
func genericRoot(s *stack[float64]) {
	s.push(1)
	_ = fill[uint32](4)
	_ = dup(s.items)
}

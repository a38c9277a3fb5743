package telemetry

// ring is the bounded FIFO behind the journal, span-record and
// resource-sample buffers. Once full, a push overwrites the oldest entry at
// the head index, O(1) at any capacity, and counts it as dropped. It holds
// no lock: its owner's mutex guards it.
type ring[T any] struct {
	buf     []T
	size    int // capacity; a zero-capacity ring keeps nothing
	head    int // index of the oldest entry once the ring is full
	dropped int64
}

// push appends v, overwriting the oldest entry when the ring is full.
func (r *ring[T]) push(v T) {
	if len(r.buf) < r.size {
		r.buf = append(r.buf, v)
		return
	}
	if r.size > 0 {
		r.buf[r.head] = v
		r.head = (r.head + 1) % r.size
		r.dropped++
	}
}

// snapshot copies the entries out oldest-first; it is never nil.
func (r *ring[T]) snapshot() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

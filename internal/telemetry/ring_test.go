package telemetry

import (
	"fmt"
	"testing"
)

// A ring keeps the last size pushes oldest-first and counts the rest as
// dropped, at every fill level from empty to wrapped more than once.
func TestRing(t *testing.T) {
	for _, size := range []int{1, 3, 4096} {
		for _, pushes := range []int{0, size - 1, size, 3*size + 1} {
			t.Run(fmt.Sprintf("cap%d/push%d", size, pushes), func(t *testing.T) {
				r := ring[int]{size: size}
				for i := 0; i < pushes; i++ {
					r.push(i)
				}
				got := r.snapshot()
				kept := min(pushes, size)
				if got == nil || len(got) != kept {
					t.Fatalf("snapshot holds %d (nil %t), want %d", len(got), got == nil, kept)
				}
				for i, v := range got {
					if want := pushes - kept + i; v != want {
						t.Fatalf("entry %d = %d, want %d", i, v, want)
					}
				}
				if want := int64(pushes - kept); r.dropped != want {
					t.Fatalf("dropped %d, want %d", r.dropped, want)
				}
			})
		}
	}
}

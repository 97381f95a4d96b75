package fleet

import (
	"fmt"
	"sync"
	"testing"
)

// TestModelCacheShapes pins the fleet's one source of job shapes: every
// fleet shape's profile carries its canonical name, and its scaled sibling
// shares the unscaled plan, so cluster engines pool task sets across both.
// Profile and Model run concurrently for distinct shapes, so the race
// detector sees the single-flight builds (and their nested Gets) overlap.
func TestModelCacheShapes(t *testing.T) {
	m := NewModelCache(99)
	var shapes []Shape
	for _, s := range fleetShapes {
		scaled := s
		scaled.Scale = 1.2
		shapes = append(shapes, scaled, s)
	}
	errs := make([]error, 2*len(shapes))
	var wg sync.WaitGroup
	for i, s := range shapes {
		wg.Add(2)
		go func(i int, s Shape) {
			defer wg.Done()
			_, errs[2*i] = m.Profile(s)
		}(i, s)
		go func(i int, s Shape) {
			defer wg.Done()
			_, errs[2*i+1] = m.Model(s)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, s := range fleetShapes {
		plain, err := m.Profile(s)
		if err != nil {
			t.Fatal(err)
		}
		scaled, err := m.Profile(Shape{Tasks: s.Tasks, Barrier: s.Barrier, Scale: 1.2})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("bg-%d", s.Tasks)
		if s.Barrier {
			want = fmt.Sprintf("bgb-%d", s.Tasks)
		}
		if plain.Job.Name != want {
			t.Errorf("shape %s: plan named %q, want %q", s.Key(), plain.Job.Name, want)
		}
		if scaled == plain || scaled.Job != plain.Job {
			t.Errorf("shape %s: scaled profile must be distinct but share the unscaled *dag.Job", s.Key())
		}
		jk, err := m.Model(s)
		if err != nil {
			t.Fatal(err)
		}
		if jk.Profile() != plain {
			t.Errorf("shape %s: model built from another profile than Profile returns", s.Key())
		}
	}
}

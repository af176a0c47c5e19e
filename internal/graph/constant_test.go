package graph

import (
	"sync"
	"testing"

	"astra/internal/tensor"
)

// TestDataMadeOnce has goroutines read one parameter's data at once: the
// data is made once and every reader gets the same tensor, equal to what
// the recipe makes afresh. Run it under -race.
func TestDataMadeOnce(t *testing.T) {
	g := New()
	v := g.Param("w", Gaussian(tensor.NewRNG(3), 0.1, 32, 16))
	if v.Materialized() {
		t.Fatal("declaring a parameter made its data")
	}
	got := make([]*tensor.Tensor, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = v.Data()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, d := range got {
		if d != got[0] {
			t.Fatalf("reader %d got a different tensor than reader 0", i)
		}
	}
	if !v.Materialized() {
		t.Fatal("Materialized is false after Data")
	}
	if tensor.MaxAbsDiff(got[0], v.Recipe().New()) != 0 {
		t.Fatal("the made data differs from a fresh make of the recipe")
	}
}

// TestGaussianRecipeAdvancesGenerator checks that declaring a Gaussian
// recipe leaves the generator where the eager tensor.Randn would have,
// so draws after it are unchanged.
func TestGaussianRecipeAdvancesGenerator(t *testing.T) {
	lazy, eager := tensor.NewRNG(11), tensor.NewRNG(11)
	r := Gaussian(lazy, 0.5, 3, 5)
	want := tensor.Randn(eager, 0.5, 3, 5)
	if lazy.Uint64() != eager.Uint64() {
		t.Fatal("the generator after a recipe differs from the one after an eager fill")
	}
	if tensor.MaxAbsDiff(r.New(), want) != 0 || !r.Shape().Equal(tensor.Shape{3, 5}) {
		t.Fatal("the recipe makes different data from the eager fill")
	}
	if z := Zeros(2, 2).New(); tensor.MaxAbsDiff(z, tensor.New(2, 2)) != 0 {
		t.Fatal("a zeros recipe made non-zero data")
	}
}

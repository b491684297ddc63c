package attack_test

import (
	"reflect"
	"testing"

	"fedguard/internal/attack"
	"fedguard/internal/experiment"
	"fedguard/internal/rng"
)

// TestRegistry pins the one attack table from every side that reads it
// (TestAttackNames holds each entry to the name it builds): "" is
// "none", an unknown name is an error, every scenario's attack resolves,
// and two additive-noise instances built from one seed — as separate
// networked clients do — collude on the same noise vector.
func TestRegistry(t *testing.T) {
	if a, err := attack.ByName("", 1); err != nil || a.Name() != "none" {
		t.Fatalf(`ByName("") = %v, %v; want the benign attack`, a, err)
	}
	if _, err := attack.ByName("quantum", 1); err == nil {
		t.Fatal("unknown attack accepted")
	}
	for _, sc := range experiment.Scenarios() {
		if _, err := experiment.NewAttack(sc.Attack, 7); err != nil {
			t.Fatalf("scenario %s: %v", sc.ID, err)
		}
	}

	noisy := func() []float32 {
		a, err := attack.ByName("additive-noise", attack.CollusionSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		w := make([]float32, 16)
		a.PoisonModel(w, rng.New(3))
		return w
	}
	if a, b := noisy(), noisy(); !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, make([]float32, 16)) {
		t.Fatalf("separately built additive-noise instances drew %v and %v", a, b)
	}
}

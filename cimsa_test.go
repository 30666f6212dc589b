package cimsa_test

import (
	"fmt"
	"strings"
	"testing"

	"cimsa"
)

func TestFacadeSolve(t *testing.T) {
	in := cimsa.GenerateInstance("facade", 200, 1)
	rep, err := cimsa.Solve(in, cimsa.Options{PMax: 3, Seed: 1, Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Tour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	if rep.OptimalRatio <= 0 {
		t.Fatal("reference ratio missing")
	}
	if rep.Chip.AreaMM2 <= 0 {
		t.Fatal("hardware report missing")
	}
}

func TestFacadeSolveName(t *testing.T) {
	rep, err := cimsa.SolveName("pcb442", cimsa.Options{Seed: 2, SkipHardware: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 442 {
		t.Fatalf("solved %d cities", rep.N)
	}
	if rep.Chip.AreaMM2 != 0 {
		t.Fatal("hardware report present despite SkipHardware")
	}
	if _, err := cimsa.SolveName("bogus", cimsa.Options{}); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestFacadeLoadInstance(t *testing.T) {
	src := "NAME : t\nTYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 3 0\n3 0 4\nEOF\n"
	in, err := cimsa.LoadInstance(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 3 || in.Dist(1, 2) != 5 {
		t.Fatalf("parsed instance wrong: n=%d", in.N())
	}
}

func TestFacadeNames(t *testing.T) {
	names := cimsa.InstanceNames()
	if len(names) == 0 {
		t.Fatal("no registry names")
	}
	found := false
	for _, n := range names {
		if n == "pla85900" {
			found = true
		}
	}
	if !found {
		t.Fatal("pla85900 missing from registry")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	in := cimsa.GenerateInstance("facade-det", 150, 3)
	a, err := cimsa.Solve(in, cimsa.Options{Seed: 4, SkipHardware: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cimsa.Solve(in, cimsa.Options{Seed: 4, SkipHardware: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Length != b.Length {
		t.Fatalf("same seed, different lengths: %v vs %v", a.Length, b.Length)
	}
}

func TestFacadeRejectsBadOptions(t *testing.T) {
	in := cimsa.GenerateInstance("facade-bad", 50, 5)
	if _, err := cimsa.Solve(in, cimsa.Options{PMax: 1}); err == nil {
		t.Fatal("PMax=1 accepted")
	}
}

func TestFacadeExplicitMatrixEndToEnd(t *testing.T) {
	// An EXPLICIT-matrix TSPLIB file (no coordinates) solves through the
	// full pipeline: the parser recovers an MDS embedding for the
	// clustering while distances always come from the matrix.
	base := cimsa.GenerateInstance("exp-src", 120, 9)
	var sb strings.Builder
	fmt.Fprintf(&sb, "NAME : exp120\nTYPE : TSP\nDIMENSION : %d\n", base.N())
	sb.WriteString("EDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n")
	for i := 0; i < base.N(); i++ {
		for j := 0; j < base.N(); j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%g", base.Dist(i, j))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("EOF\n")
	in, err := cimsa.LoadInstance(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cimsa.Solve(in, cimsa.Options{Seed: 3, SkipHardware: true, Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Tour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	if rep.OptimalRatio > 1.6 {
		t.Fatalf("explicit-instance quality poor: %v", rep.OptimalRatio)
	}
}

// An instance of at most cluster.TopThreshold (10) cities is a
// one-level hierarchy: the exact top-level solve is the whole tour and
// no level is annealed. Every size from 3 up to the first annealed one
// must solve to a valid, deterministic tour at every cluster size, with
// and without the chip report (which stays zero below 11 cities: there
// is no annealing run to price).
func TestSolveSmallInstances(t *testing.T) {
	for n := 3; n <= 11; n++ {
		for _, pmax := range []int{2, 3, 8} {
			for _, skipHW := range []bool{true, false} {
				name := fmt.Sprintf("n%d-p%d-skiphw%v", n, pmax, skipHW)
				in := cimsa.GenerateInstance(name, n, uint64(n))
				opts := cimsa.Options{PMax: pmax, Seed: 5, SkipHardware: skipHW}
				a, err := cimsa.Solve(in, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := a.Tour.Validate(n); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				b, err := cimsa.Solve(in, opts)
				if err != nil {
					t.Fatalf("%s: rerun: %v", name, err)
				}
				if a.Length != b.Length || fmt.Sprint(a.Tour) != fmt.Sprint(b.Tour) {
					t.Fatalf("%s: not deterministic: %v (%g) vs %v (%g)", name, a.Tour, a.Length, b.Tour, b.Length)
				}
				if annealed := n > 10; (a.Solver.Levels > 0) != annealed {
					t.Fatalf("%s: %d annealed levels", name, a.Solver.Levels)
				}
				if hw := !skipHW && n > 10; (a.Chip != cimsa.ChipReport{}) != hw {
					t.Fatalf("%s: chip report %+v", name, a.Chip)
				}
			}
		}
	}
}

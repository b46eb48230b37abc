package optim

import (
	"math"
	"testing"
)

func TestSGDApply(t *testing.T) {
	s := NewSGD(0.1)
	row := []float32{1, 2}
	s.Apply(0, row, []float32{10, -10})
	if row[0] != 0 || row[1] != 3 {
		t.Fatalf("row = %v", row)
	}
	if s.Name() != "sgd" {
		t.Error("name wrong")
	}
}

func TestSGDStep(t *testing.T) {
	s := NewSGD(0.5)
	params := []float32{1, 1}
	s.Step(params, []float32{2, -2})
	if params[0] != 0 || params[1] != 2 {
		t.Fatalf("params = %v", params)
	}
}

func TestSGDPanicsOnBadLR(t *testing.T) {
	for _, lr := range []float32{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSGD(%v) accepted", lr)
				}
			}()
			NewSGD(lr)
		}()
	}
}

func TestAdaGradShrinksSteps(t *testing.T) {
	a := NewAdaGrad(0.1, 2, 3)
	row := []float32{0, 0, 0}
	grad := []float32{1, 1, 1}
	a.Apply(0, row, grad)
	step1 := -float64(row[0])
	a.Apply(0, row, grad)
	step2 := -float64(row[0]) - step1
	// With accumulating squared gradients, each subsequent step on the
	// same feature must be smaller.
	if step2 >= step1 {
		t.Fatalf("AdaGrad steps not shrinking: %v then %v", step1, step2)
	}
	// Expected: lr·g/√(g²) = 0.1 for the first step (modulo eps).
	if math.Abs(step1-0.1) > 1e-3 {
		t.Errorf("first step %v, want ≈0.1", step1)
	}
}

func TestAdaGradPerFeatureState(t *testing.T) {
	a := NewAdaGrad(0.1, 2, 1)
	r0 := []float32{0}
	r1 := []float32{0}
	a.Apply(0, r0, []float32{1})
	a.Apply(0, r0, []float32{1})
	a.Apply(1, r1, []float32{1})
	// Feature 1's first step must be full-sized despite feature 0's
	// history.
	if math.Abs(float64(r1[0])+0.1) > 1e-3 {
		t.Errorf("feature 1 first step %v, want ≈-0.1", r1[0])
	}
}

func TestAdaGradName(t *testing.T) {
	if NewAdaGrad(0.1, 1, 1).Name() != "adagrad" {
		t.Error("name wrong")
	}
	if NewDenseAdaGrad(0.1, 1).Name() != "adagrad" {
		t.Error("dense name wrong")
	}
}

func TestAdaGradPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAdaGrad(0, ...) accepted")
		}
	}()
	NewAdaGrad(0, 1, 1)
}

func TestDenseAdaGrad(t *testing.T) {
	d := NewDenseAdaGrad(0.1, 2)
	params := []float32{0, 0}
	d.Step(params, []float32{1, 2})
	if params[0] >= 0 || params[1] >= 0 {
		t.Fatalf("params = %v", params)
	}
	p0 := params[0]
	d.Step(params, []float32{1, 2})
	if params[0]-p0 <= -0.1 {
		// Second step must be smaller than the first (~0.1).
		t.Errorf("second step too large: %v", params[0]-p0)
	}
}

func TestDenseAdaGradPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDenseAdaGrad(-1, ...) accepted")
		}
	}()
	NewDenseAdaGrad(-1, 1)
}

// TestChunkedDenseBitIdentical pins the ChunkedDense contract: sweeping one
// dense step in arbitrary chunks must produce bit-identical parameters and
// accumulator state to a whole-vector Step, because the update is
// elementwise.
func TestChunkedDenseBitIdentical(t *testing.T) {
	const n = 37 // deliberately not a multiple of any chunk size
	grad := make([]float32, n)
	for i := range grad {
		grad[i] = float32(i%7) - 2.5
	}
	for name, mk := range map[string]func() Dense{
		"sgd":     func() Dense { return NewSGD(0.05) },
		"adagrad": func() Dense { return NewDenseAdaGrad(0.05, n) },
	} {
		whole := mk()
		chunked := mk()
		pw := make([]float32, n)
		pc := make([]float32, n)
		for step := 0; step < 3; step++ { // repeat so AdaGrad state matters
			whole.Step(pw, grad)
			cd := chunked.(ChunkedDense)
			for lo := 0; lo < n; lo += 8 {
				hi := lo + 8
				if hi > n {
					hi = n
				}
				cd.StepAt(lo, pc[lo:hi], grad[lo:hi])
			}
		}
		for i := range pw {
			if pw[i] != pc[i] {
				t.Fatalf("%s: param %d diverged: %v (whole) vs %v (chunked)", name, i, pw[i], pc[i])
			}
		}
	}
}

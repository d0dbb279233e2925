package faultinject

import (
	"errors"
	"testing"
)

func TestDisarmedFireIsNil(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("Enabled with nothing armed")
	}
	if err := Fire(FitIter, nil); err != nil {
		t.Fatalf("disarmed Fire returned %v", err)
	}
}

func TestEnableDisableReset(t *testing.T) {
	defer Reset()
	boom := errors.New("boom")
	Enable(PersistWrite, Fail(boom))
	if !Enabled() {
		t.Fatal("Enabled false after Enable")
	}
	if err := Fire(PersistWrite, nil); !errors.Is(err, boom) {
		t.Fatalf("Fire = %v, want boom", err)
	}
	// Other points stay disarmed.
	if err := Fire(PersistRename, nil); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
	Disable(PersistWrite)
	if Enabled() {
		t.Fatal("Enabled true after Disable")
	}
	Enable(FitIter, Fail(boom))
	Reset()
	if Enabled() || Fire(FitIter, nil) != nil {
		t.Fatal("Reset did not disarm")
	}
}

func TestEnableReplacesHookWithoutLeak(t *testing.T) {
	defer Reset()
	Enable(FitIter, Fail(errors.New("a")))
	Enable(FitIter, nil) // replace, same point
	Disable(FitIter)
	if Enabled() {
		t.Fatal("armed count leaked on replace")
	}
}

func TestOnce(t *testing.T) {
	defer Reset()
	boom := errors.New("boom")
	Enable(FitIter, Once(Fail(boom)))
	if err := Fire(FitIter, nil); !errors.Is(err, boom) {
		t.Fatalf("first hit = %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := Fire(FitIter, nil); err != nil {
			t.Fatalf("hit %d after Once fired: %v", i+2, err)
		}
	}
}

func TestOnCall(t *testing.T) {
	defer Reset()
	boom := errors.New("boom")
	Enable(PersistRename, OnCall(3, Fail(boom)))
	for i := 1; i <= 5; i++ {
		err := Fire(PersistRename, nil)
		if i == 3 && !errors.Is(err, boom) {
			t.Fatalf("call 3 = %v, want boom", err)
		}
		if i != 3 && err != nil {
			t.Fatalf("call %d = %v, want nil", i, err)
		}
	}
}

func TestHookSeesPayload(t *testing.T) {
	defer Reset()
	var got any
	Enable(FitIter, func(p any) error { got = p; return nil })
	payload := struct{ Iter int }{7}
	if err := Fire(FitIter, payload); err != nil {
		t.Fatal(err)
	}
	if got != payload {
		t.Fatalf("payload = %v, want %v", got, payload)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

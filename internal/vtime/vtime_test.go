package vtime

import (
	"testing"
	"testing/quick"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock at %v", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(1.5)
	c.Advance(0.5)
	if c.Now() != 2.0 {
		t.Fatalf("clock at %v, want 2.0", c.Now())
	}
}

func TestClockAdvanceIgnoresNegative(t *testing.T) {
	var c Clock
	c.Advance(1)
	c.Advance(-5)
	if c.Now() != 1 {
		t.Fatalf("negative advance moved clock to %v", c.Now())
	}
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.AdvanceTo(3)
	if c.Now() != 3 {
		t.Fatalf("AdvanceTo(3) -> %v", c.Now())
	}
	c.AdvanceTo(1) // must not move backwards
	if c.Now() != 3 {
		t.Fatalf("AdvanceTo(1) moved clock back to %v", c.Now())
	}
}

func TestClockString(t *testing.T) {
	var c Clock
	c.Advance(0.5)
	if got := c.String(); got == "" {
		t.Fatal("empty String()")
	}
}

// Property: clocks are monotone under any sequence of Advance/AdvanceTo.
func TestQuickClockMonotone(t *testing.T) {
	f := func(ops []int16) bool {
		var c Clock
		prev := 0.0
		for _, op := range ops {
			if op%2 == 0 {
				c.Advance(float64(op) / 100)
			} else {
				c.AdvanceTo(float64(op) / 100)
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Advance of a product adds the rounded product. Advance inlines,
// so without its explicit float64 conversion a fusing architecture could
// compute now + a*b with a single rounding and move clock bits per host.
func TestQuickAdvanceRoundsItsOperand(t *testing.T) {
	f := func(start, a, b float64) bool {
		var fused, split Clock
		fused.AdvanceTo(start)
		split.AdvanceTo(start)
		fused.Advance(a * b)
		p := float64(a * b)
		split.Advance(p)
		return fused.Now() == split.Now()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Package lib holds the deadexport fixture's audited declarations.
package lib

import "fmt"

func Dead() {} // want deadexport "exported func lib.Dead"

type DeadType struct{ n int } // want deadexport "exported type lib.DeadType"

// Self refers to DeadType, but a type's own methods do not keep it alive.
func (d DeadType) Self() DeadType { return d } // want deadexport "exported method lib.DeadType.Self"

var DeadVar = 1 // want deadexport "exported var lib.DeadVar"

const DeadConst = 2 // want deadexport "exported const lib.DeadConst"

// Countdown only calls itself.
func Countdown(n int) int { // want deadexport "exported func lib.Countdown"
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// BenchOnly is called only from the nested module under bench/, which
// is not part of this module.
func BenchOnly() {} // want deadexport "exported func lib.BenchOnly"

// Live is called by the root package.
func Live() int { return helper() }

func helper() int { return 1 }

// Reset is a test hook.
//
//lint:allow deadexport test hook: tests reset state between cases
func Reset() {}

// Shape is called through: Area reaches Square.Area only by dispatch.
type Shape interface {
	Area() float64
}

// Sizer is used as a type, but nothing calls Size through it; the
// rule flags the interface method, not its implementations.
type Sizer interface {
	Size() int // want deadexport "exported method lib.Sizer.Size"
}

// Square implements Shape, Sizer and fmt.Stringer.
type Square struct{ s float64 }

// NewSquare returns a Square.
func NewSquare(s float64) Square { return Square{s: s} }

// Area is reached only through Shape.Area.
func (q Square) Area() float64 { return q.s * q.s }

// Size satisfies Sizer, whose method is flagged instead.
func (q Square) Size() int { return int(q.s) }

// String is called by fmt, never by the module.
func (q Square) String() string { return fmt.Sprintf("square(%g)", q.s) }

// Scale is an unused method.
func (q Square) Scale(k float64) Square { return Square{s: q.s * k} } // want deadexport "exported method lib.Square.Scale"

// Area sums the areas through the interface.
func Area(shapes []Shape) float64 {
	var sum float64
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Counter is re-exported by the root package.
type Counter struct{ n int }

// Add is public API through the root's alias.
func (c *Counter) Add() { c.n++ }

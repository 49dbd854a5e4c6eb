// Package dirty is a driver-test fixture with exactly two findings: a
// factory component implementation nothing registers, and an unused allow.
// It is never part of the build.
package dirty

import "supersim/internal/factory"

// Gadget is the fixture's component interface.
type Gadget interface {
	Spin() int
}

// Registry holds the fixture's gadget constructors.
var Registry = factory.NewRegistry[func() Gadget]("gadget")

// Wheel is registered below.
type Wheel struct{}

func (*Wheel) Spin() int { return 1 }

func init() {
	Registry.Register("wheel", func() Gadget { return &Wheel{} })
}

// Orphan implements Gadget, but no init() registers it.
type Orphan struct{}

func (*Orphan) Spin() int { return 0 }

//sslint:allow factoryreg — fixture: deliberately unused
func quiet() {}

// Package lib declares one exported function or method per deadapi case.
package lib

func Unused() {} // want "Unused is exported but nothing outside example/internal/lib's own tests references it"

// OnlyOwnTest is called from lib's own tests alone.
func OnlyOwnTest() {} // want "OnlyOwnTest is exported but nothing"

// UsedByOtherTest is called from another package's test.
func UsedByOtherTest() {}

// UsedByNested is called from a nested module, as perfbench calls the repo.
func UsedByNested() {}

// UsedInPackage is called from lib's own non-test code.
func UsedInPackage() int { return 1 }

func helper() int { return UsedInPackage() }

// Map is generic and reached only through an instantiation.
func Map[T any](x T) T { return x }

// Box is a generic type whose method is reached through an instantiation.
type Box[T any] struct{ v T }

// Get is used only as a method of Box[int].
func (b Box[T]) Get() T { return b.v }

// Impl satisfies user's describer interface.
type Impl struct{}

// Describe is named by an interface, so it is exempt.
func (Impl) Describe() string { return "impl" }

func (Impl) Dead() {} // want "Impl.Dead is exported but nothing"

func unexported() {}

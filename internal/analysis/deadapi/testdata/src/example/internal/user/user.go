// Package user reaches lib through an instantiation and an interface.
package user

import "example/internal/lib"

type describer interface{ Describe() string }

func use() (int, describer) {
	return lib.Map[int](1) + lib.Box[int]{}.Get(), lib.Impl{}
}

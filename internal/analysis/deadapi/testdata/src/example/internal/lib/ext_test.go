package lib_test

import "example/internal/lib"

func useOwnExternal() {
	lib.OnlyOwnTest()
	lib.Unused()
}

package user

import "example/internal/lib"

func useOther() { lib.UsedByOtherTest() }

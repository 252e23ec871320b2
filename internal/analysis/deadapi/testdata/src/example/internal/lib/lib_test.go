package lib

func useOwn() {
	OnlyOwnTest()
	Impl{}.Dead()
}

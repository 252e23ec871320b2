// Package free is outside internal/, so its exported API is not checked.
package free

func Exported() {}

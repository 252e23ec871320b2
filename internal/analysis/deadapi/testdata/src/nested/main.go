// Command nested stands in for perfbench: a module of its own under the
// root, read by syntax only.
package main

import "example/internal/lib"

func main() { lib.UsedByNested() }

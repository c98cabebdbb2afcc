// Command second lives in a module that builds against example.com/m, as
// this repository's bench/ builds against lash.
package main

import (
	"fmt"

	"example.com/m/internal/store"
)

func main() {
	fmt.Println(store.ForSecond())
}

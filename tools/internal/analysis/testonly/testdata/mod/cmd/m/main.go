// Command m is the module's production entry point.
package main

import (
	"fmt"

	"example.com/m/api"
	"example.com/m/internal/core"
	"example.com/m/internal/store"
)

func main() {
	fmt.Println(core.Run(), store.T{}, api.Used())
}

// A command is a program, not a fixture: nothing imports it, yet its
// symbols are checked.
func unused() {} // want `^unused is unused$`

// Command m is the module's production entry point.
package main

import (
	"fmt"

	"example.com/m/internal/core"
	"example.com/m/internal/store"
)

func main() {
	fmt.Println(core.Run(), store.T{})
}

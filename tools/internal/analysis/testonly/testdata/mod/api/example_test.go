package api_test

import (
	"fmt"

	"example.com/m/api"
)

// go test runs this example and compares what it prints.
func ExampleDocumented() {
	fmt.Println(api.Documented())
	// Output: 3
}

// Without an output comment this example is compiled but never run.
func ExampleUnchecked() {
	fmt.Println(api.Unchecked())
}

// Command tool is package main: its exports are out of scope.
package main

// Exported is not flagged.
func Exported() {}

func main() {}

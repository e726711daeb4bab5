//go:build ignore

// A file the ignore build constraint keeps out of every build: its
// maporder violation must not be reported.
package tf

// Ignored iterates the map with a value-dependent body.
func Ignored() int {
	s := 0
	for _, v := range Counts {
		s += v
	}
	return s
}

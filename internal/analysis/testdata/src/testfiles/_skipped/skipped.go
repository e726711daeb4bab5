// Package skipped sits in an "_"-prefixed directory, which "./..." never
// matches: its maporder violation must not be reported.
package skipped

// Sum iterates the map with a value-dependent body.
func Sum(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

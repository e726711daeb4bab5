package experiments

import "fmt"

// Generator regenerates one table or figure.
type Generator func(Options) *Table

// registry names every experiment ("table1", "figure10", ...) with its
// generator, in the paper's presentation order.
var registry = []struct {
	id  string
	gen Generator
}{
	{"table1", Table1},
	{"figure1", Figure1},
	{"figure2", Figure2},
	{"figure3", Figure3},
	{"figure5", Figure5},
	{"figure6", Figure6},
	{"figure8", Figure8},
	{"figure9", Figure9},
	{"figure10", Figure10},
	{"figure11", Figure11},
	{"table2", Table2},
	{"figure12", Figure12},
	{"figure13", Figure13},
	{"figure14", Figure14},
	{"figure15", Figure15},
	{"figure16", Figure16},
	{"figure17", Figure17},
	{"figure18", Figure18},
	{"figure19", Figure19},
	{"figure20", Figure20},
	{"staleness", Staleness},
}

// Order returns experiment ids in presentation order.
func Order() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Run looks up and executes one experiment.
func Run(id string, o Options) (*Table, error) {
	for _, e := range registry {
		if e.id == id {
			return e.gen(o), nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, Order())
}

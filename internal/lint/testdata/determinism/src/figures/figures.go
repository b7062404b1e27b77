// Package figures exercises the determinism analyzer in a package that
// writes figure CSVs (last path element "figures"): a map range that
// orders series is a diagnostic; wall-clock reads are not, since the
// figure drivers may time themselves.
package figures

import "time"

type series struct {
	name string
	ys   []float64
}

// byModel emits one series per map key: the CSV's series order would
// follow map iteration.
func byModel(m map[string][]float64) []series {
	var out []series
	for name, ys := range m { // want `figure CSVs`
		out = append(out, series{name, ys})
	}
	return out
}

// inOrder keeps first-seen order with a slice beside the index map: no
// finding.
func inOrder(names []string, ys []float64) []series {
	var out []series
	at := map[string]int{}
	for i, name := range names {
		j, ok := at[name]
		if !ok {
			j = len(out)
			at[name] = j
			out = append(out, series{name: name})
		}
		out[j].ys = append(out[j].ys, ys[i])
	}
	return out
}

// elapsed times a figure run outside any CSV: no finding here.
func elapsed(since time.Time) time.Duration {
	return time.Since(since)
}

// Package metrics provides classification quality measures beyond plain
// accuracy: confusion matrices and per-class recall. These expose what
// aggregate accuracy hides — the paper's label-flipping attack is
// *targeted* (§IV-B): it degrades only the flipped classes (5↔7, 4↔2),
// which is why it is harder to detect than untargeted attacks.
package metrics

import (
	"fmt"
	"strings"

	"fedguard/internal/classifier"
	"fedguard/internal/dataset"
	"fedguard/internal/nn"
	"fedguard/internal/rng"
)

// Confusion is a square confusion matrix: Counts[actual][predicted].
type Confusion struct {
	Counts  [][]int
	Classes int
}

// NewConfusion returns an empty matrix over n classes.
func NewConfusion(n int) *Confusion {
	c := &Confusion{Classes: n, Counts: make([][]int, n)}
	for i := range c.Counts {
		c.Counts[i] = make([]int, n)
	}
	return c
}

// Add records one (actual, predicted) observation.
func (c *Confusion) Add(actual, predicted int) {
	if actual < 0 || actual >= c.Classes || predicted < 0 || predicted >= c.Classes {
		panic(fmt.Sprintf("metrics: observation (%d,%d) out of range for %d classes",
			actual, predicted, c.Classes))
	}
	c.Counts[actual][predicted]++
}

// Recall returns the per-class recall (diagonal / row sum); classes with
// no observations report NaN-free 0.
func (c *Confusion) Recall() []float64 {
	out := make([]float64, c.Classes)
	for i, row := range c.Counts {
		rowSum := 0
		for _, v := range row {
			rowSum += v
		}
		if rowSum > 0 {
			out[i] = float64(row[i]) / float64(rowSum)
		}
	}
	return out
}

// MostConfused returns the off-diagonal cell with the highest count as
// (actual, predicted, count) — the dominant misclassification, which
// under a 5↔7 label-flip attack is exactly the flipped pair.
func (c *Confusion) MostConfused() (actual, predicted, count int) {
	actual, predicted = -1, -1
	for i, row := range c.Counts {
		for j, v := range row {
			if i != j && v > count {
				actual, predicted, count = i, j, v
			}
		}
	}
	return actual, predicted, count
}

// String renders the matrix with per-class recall, suitable for terminal
// output.
func (c *Confusion) String() string {
	var sb strings.Builder
	sb.WriteString("actual\\pred")
	for j := 0; j < c.Classes; j++ {
		fmt.Fprintf(&sb, "%6d", j)
	}
	sb.WriteString("  recall\n")
	recall := c.Recall()
	for i, row := range c.Counts {
		fmt.Fprintf(&sb, "%10d ", i)
		for _, v := range row {
			fmt.Fprintf(&sb, "%6d", v)
		}
		fmt.Fprintf(&sb, "  %5.1f%%\n", 100*recall[i])
	}
	return sb.String()
}

// Evaluate runs the model over the examples of ds selected by indices and
// returns the resulting confusion matrix.
func Evaluate(model *nn.Sequential, ds *dataset.Dataset, indices []int) *Confusion {
	c := NewConfusion(dataset.NumClasses)
	const batch = 128
	for off := 0; off < len(indices); off += batch {
		end := off + batch
		if end > len(indices) {
			end = len(indices)
		}
		x, labels := ds.Batch(indices[off:end])
		logits := model.Forward(x, false)
		n := logits.Dim(1)
		for i, actual := range labels {
			row := logits.Data[i*n : (i+1)*n]
			best := 0
			for j := 1; j < n; j++ {
				if row[j] > row[best] {
					best = j
				}
			}
			c.Add(actual, best)
		}
	}
	return c
}

// EvaluateWeights rebuilds a model of the given architecture from a flat
// parameter vector and evaluates it — the form used to analyse a global
// model checkpoint or a client update.
func EvaluateWeights(arch classifier.Arch, weights []float32, ds *dataset.Dataset, indices []int) (*Confusion, error) {
	model := arch(rng.New(0xa0d17))
	if err := model.LoadParams(weights); err != nil {
		return nil, err
	}
	return Evaluate(model, ds, indices), nil
}

// Package portfolio races multiple register-allocation methods per function
// and picks the best result under a pluggable cost model.
//
// The racer's contract is determinism: whichever order the candidates
// finish in, the winning method — and therefore the output program — is a
// pure function of the input and options, byte-identical run to run and
// across worker-pool sizes. See DESIGN.md, "Allocator portfolio".
package portfolio

import (
	"fmt"

	"prescount/internal/core"
)

// Cost scores one compiled result; lower is better. Implementations must be
// deterministic and safe for concurrent use — the racer scores candidates
// from pool workers.
type Cost interface {
	// Name identifies the model in reports ("static").
	Name() string
	// Score returns the cost of res. A score of 0 is a perfect result: the
	// racer short-circuits on it, cancelling every lower-ranked candidate.
	Score(res *core.Result) (float64, error)
}

// StaticCost is the default model: a weighted sum of the static conflict
// analysis — bank conflicts, spill instructions and copies — needing no
// simulation. The default weights reflect rough dynamic prices: a conflict
// stalls one read port for a cycle, a spill store/reload is a memory
// round-trip, a copy is one ALU slot.
type StaticCost struct {
	Conflicts float64
	Spills    float64
	Copies    float64
}

// DefaultStaticCost returns the standard weighting.
func DefaultStaticCost() StaticCost { return StaticCost{Conflicts: 4, Spills: 2, Copies: 1} }

func (c StaticCost) Name() string { return "static" }

func (c StaticCost) Score(res *core.Result) (float64, error) {
	r := res.Report
	if r == nil {
		return 0, fmt.Errorf("portfolio: static cost needs a conflict report")
	}
	return c.Conflicts*float64(r.StaticConflicts) +
		c.Spills*float64(r.SpillStores+r.SpillReloads) +
		c.Copies*float64(r.Copies), nil
}

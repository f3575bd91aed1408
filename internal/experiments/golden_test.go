package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/workload"
)

// compareGoldenWant pins the SHA-256 of every benchtab -exp methods cell:
// the three suites at RV#2 with 2 banks under every single method and the
// portfolio. It hashes every MethodCell field but the wall time, race
// wins included, so a rewrite of the comparison (or of the portfolio it
// races) must reproduce the cells exactly.
const compareGoldenWant = "44476562f99519084eb55c223436e1aa6a15c03802d566c335b1726147c230b1"

// TestGoldenCompareMethods pins the method-comparison cells on the whole
// SPECfp, CNN-KERNEL and DSA-OP corpus.
func TestGoldenCompareMethods(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole corpus under seven methods")
	}
	mc, err := CompareMethods([]*workload.Suite{workload.SPECfp(), workload.CNN(), workload.DSAOP()}, bankfile.RV2(2))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "file %s\n", mc.File)
	for _, c := range mc.Cells {
		// fmt prints a map in sorted key order, so Wins hashes stably.
		fmt.Fprintf(h, "%s/%s static %d spills %d copies %d cycles %d score %v wins %v\n",
			c.Suite, c.Method, c.Static, c.Spills, c.Copies, c.Cycles, c.Score, c.Wins)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != compareGoldenWant {
		t.Errorf("cells digest %s, want %s", got, compareGoldenWant)
	}
}

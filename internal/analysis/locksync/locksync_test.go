package locksync_test

import (
	"testing"

	"github.com/rvm-go/rvm/internal/analysis/analysistest"
	"github.com/rvm-go/rvm/internal/analysis/lockorder"
	"github.com/rvm-go/rvm/internal/analysis/locksync"
)

// testHierarchy scopes Rule C to the golden package's engine locks.
var testHierarchy = &lockorder.Hierarchy{Entries: []lockorder.Entry{
	{Pkg: "a", Type: "Engine", Field: "mu", Level: 10, Name: "engine lock"},
	{Pkg: "a", Type: "Region", Field: "mu", Level: 20, Ordered: true, Name: "region lock"},
}}

func TestLockSync(t *testing.T) {
	analysistest.Run(t, locksync.NewAnalyzer(testHierarchy), "a")
}

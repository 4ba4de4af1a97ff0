// Package analysis collects the RVM static-analysis suite.
//
// The individual analyzers live in subpackages; see each package's doc
// comment for the invariant it enforces and DESIGN.md §10 for how the
// invariants derive from the paper's transactional discipline.
package analysis

import (
	"github.com/rvm-go/rvm/internal/analysis/framework"
	"github.com/rvm-go/rvm/internal/analysis/lockorder"
	"github.com/rvm-go/rvm/internal/analysis/locksync"
	"github.com/rvm-go/rvm/internal/analysis/obsleak"
	"github.com/rvm-go/rvm/internal/analysis/txlifecycle"
	"github.com/rvm-go/rvm/internal/analysis/uncheckedcommit"
	"github.com/rvm-go/rvm/internal/analysis/unloggedstore"
)

// All returns the full analyzer suite in stable order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		unloggedstore.Analyzer,
		txlifecycle.Analyzer,
		uncheckedcommit.Analyzer,
		locksync.Analyzer,
		obsleak.Analyzer,
		lockorder.Analyzer,
	}
}

package lint

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// ApprovedGoroutineFiles are the only files under internal/ allowed to start
// goroutines. Everything the simulator computes must be a pure function of
// configuration and seed, and the files below are the only places where
// concurrency has a proven determinism argument:
//
//   - internal/experiments/runner.go: the experiment worker pool, which
//     parallelizes across independent System instances that share no
//     mutable state;
//   - internal/server/queue.go: the job server's worker pool, which only
//     decides which wall-clock moment a job runs at — each job's results
//     remain a pure function of (config, seed), so scheduling cannot
//     change output (pinned by the server lifecycle tests).
//
// A single simulation always steps on one goroutine. A `go` statement
// anywhere else under internal/ is an unreviewed concurrency seam and is
// reported.
var ApprovedGoroutineFiles = []string{
	"internal/experiments/runner.go",
	"internal/server/queue.go",
}

// NewGoroutineDiscipline returns the goroutine-discipline analyzer: inside
// internal/ packages, `go` statements may appear only in the approved files.
// approved entries are slash-separated path suffixes matched against the
// file the statement appears in.
func NewGoroutineDiscipline(approved []string) *Analyzer {
	a := &Analyzer{
		Name: "goroutine",
		Doc: "forbid `go` statements under internal/ outside the approved concurrency\n" +
			"seams (the experiment worker pool and the job server's worker pool);\n" +
			"ad-hoc goroutines are how nondeterminism and data races enter a simulator",
	}
	a.Run = func(pass *Pass) {
		if !pass.Internal() {
			return
		}
		for _, f := range pass.Files {
			name := filepath.ToSlash(pass.Fset.Position(f.Pos()).Filename)
			if approvedGoroutineFile(name, approved) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(), "go statement outside the approved concurrency seams; deterministic parallelism belongs in the experiment runner pool (internal/experiments/runner.go) or the job server's worker pool (internal/server/queue.go)")
				}
				return true
			})
		}
	}
	return a
}

func approvedGoroutineFile(name string, approved []string) bool {
	for _, suffix := range approved {
		if name == suffix || strings.HasSuffix(name, "/"+suffix) {
			return true
		}
	}
	return false
}

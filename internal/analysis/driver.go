package analysis

import (
	"runtime"
	"sync"
)

// Run executes the analyzers over the packages and returns the surviving
// diagnostics sorted by position. Packages run in dependency order: a
// package is scheduled as soon as every program-local package it imports
// (restricted to the target set) has finished, so independent subtrees
// of the import graph analyze in parallel while interprocedural facts —
// computed bottom-up from summaries — are always available by the time a
// dependent package needs them. jobs bounds the worker count (1 runs the
// packages one after another, <=0 means GOMAXPROCS); the output does not
// depend on it. force is threaded into each pass (used only by the test
// harness). A non-nil tm collects per-checker wall time and surviving
// findings.
func Run(prog *Program, pkgs []*Package, analyzers []*Analyzer, force bool, jobs int, tm *Timings) ([]Diagnostic, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	ordered := prog.DepOrder(pkgs)
	if jobs == 1 || len(ordered) <= 1 {
		var all []Diagnostic
		for _, pkg := range ordered {
			diags, err := runPackage(prog, pkg, analyzers, force, tm)
			if err != nil {
				return nil, err
			}
			all = append(all, diags...)
		}
		SortDiagnostics(all)
		return all, nil
	}

	inTargets := make(map[*Package]int, len(ordered))
	for i, pkg := range ordered {
		inTargets[pkg] = i
	}
	// blocks[p] lists the target packages waiting on p; pending[q] counts
	// the unfinished target dependencies of q.
	blocks := make(map[*Package][]*Package)
	pending := make(map[*Package]int)
	for _, pkg := range ordered {
		for _, dep := range prog.LocalImports(pkg) {
			if _, ok := inTargets[dep]; ok {
				blocks[dep] = append(blocks[dep], pkg)
				pending[pkg]++
			}
		}
	}

	ready := make(chan *Package, len(ordered))
	for _, pkg := range ordered {
		if pending[pkg] == 0 {
			ready <- pkg
		}
	}

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		results  = make([][]Diagnostic, len(ordered))
		done     int
	)
	wg.Add(len(ordered))
	if jobs > len(ordered) {
		jobs = len(ordered)
	}
	for i := 0; i < jobs; i++ {
		go func() {
			for pkg := range ready {
				diags, err := runPackage(prog, pkg, analyzers, force, tm)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				results[inTargets[pkg]] = diags
				for _, dependent := range blocks[pkg] {
					pending[dependent]--
					if pending[dependent] == 0 {
						ready <- dependent
					}
				}
				done++
				if done == len(ordered) {
					close(ready)
				}
				mu.Unlock()
				wg.Done()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	var all []Diagnostic
	for _, diags := range results {
		all = append(all, diags...)
	}
	SortDiagnostics(all)
	return all, nil
}

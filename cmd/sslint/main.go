// Command sslint runs the simulator-aware static analysis suite over the
// repository: determinism, factoryreg, shardsafety and snapshotcomplete (see
// internal/lint).
//
// Usage:
//
//	sslint [-rules determinism,factoryreg] [-json] [-baseline sslint.baseline] <packages>
//
// Targets are directories (./internal/router) or go-list patterns (./...).
// Exit code 0 means clean, 1 means findings, 2 means the run itself failed
// (unknown rule, unloadable package, stale baseline entry).
package main

import "os"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

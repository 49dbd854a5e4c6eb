// Package dirty is a driver-test fixture with exactly two findings: an
// unguarded probe call and an unused allow. It is never part of the build.
package dirty

import "supersim/internal/taskrun"

func leak(p taskrun.Probe) {
	p.TaskReady("dirty")
}

//sslint:allow probeguard — fixture: deliberately unused
func quiet() {}

package main

import "syscall"

// childProcAttr makes the kernel kill a daemon when the bench dies without
// running its clean-up (SIGKILL, a crash), so no run can leave a listener
// behind.
func childProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

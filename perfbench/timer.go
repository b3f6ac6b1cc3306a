package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timer is a session's high-resolution wait for its next arrival: a
// Linux timerfd registered with the runtime's poller. The session
// goroutine parks on it and wakes within microseconds of the due time,
// without holding a processor. time.Sleep would wake it up to a
// millisecond late, because the runtime rounds its poll timeouts to
// milliseconds, and that lateness would be charged to the arrival.
type timer struct{ f *os.File }

func newTimer() (*timer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking descriptor makes the File pollable.
	return &timer{f: os.NewFile(fd, "timerfd")}, nil
}

// sleep returns after d.
func (t *timer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // it_interval, it_value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err
}

func (t *timer) close() error { return t.f.Close() }

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerFD sleeps on a Linux timerfd read through the Go netpoller. An idle
// Go scheduler waits in epoll with whole-millisecond timeouts, so
// time.Sleep below a millisecond oversleeps by up to one; a timerfd
// becoming readable wakes epoll at the timer's own nanosecond precision,
// and the sleeping sender holds no processor meanwhile.
type timerFD struct {
	f  *os.File
	rc syscall.RawConn
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newTimerFD() (*timerFD, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	f := os.NewFile(fd, "timerfd")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &timerFD{f: f, rc: rc}, nil
}

// sleep blocks the calling goroutine for d.
func (t *timerFD) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval {sec, nsec}, it_value {sec, nsec}.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	var errno syscall.Errno
	if err := t.rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec[0])), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var buf [8]byte // the expiration count
	_, err := t.f.Read(buf[:])
	return err
}

func (t *timerFD) close() { t.f.Close() }

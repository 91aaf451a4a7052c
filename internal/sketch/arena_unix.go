//go:build unix

package sketch

import (
	"strconv"
	"syscall"
)

var pageSize = syscall.Getpagesize()

// mapBytes maps n bytes of zeroed, private, anonymous memory: pages the
// kernel backs when first touched and the collector never sees.
func mapBytes(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("sketch: mapping " + strconv.Itoa(n) + " bytes for counters: " + err.Error())
	}
	return b
}

// unmapBytes gives a mapping from mapBytes back to the kernel.
func unmapBytes(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("sketch: unmapping counters: " + err.Error())
	}
}

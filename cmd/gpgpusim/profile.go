package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts a CPU profile into cpuFile when it is non-empty and
// returns the function that ends the run's profiling: it stops the CPU
// profile and, when memFile is non-empty, writes a heap profile taken
// after a garbage collection (so it shows live memory). Errors writing
// the profiles at the end are reported on stderr; they do not change the
// run's exit status.
func startProfiles(cpuFile, memFile string) (stop func(), err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}
		if memFile != "" {
			if err := writeHeapProfile(memFile); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

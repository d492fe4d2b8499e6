package cliflag

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles backs the -cpuprofile and -memprofile flags: it begins
// CPU profiling into cpuPath and arranges a heap snapshot into memPath
// (either may be empty to skip it). The returned stop function must run
// before exit — os.Exit skips defers, so mains sequence it explicitly.
// A failed heap snapshot is reported on stderr under prog's name.
func StartProfiles(prog, cpuPath, memPath string) (stop func(), err error) {
	stop = func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if memPath != "" {
		cpuStop := stop
		stop = func() {
			cpuStop()
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, prog+": memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, prog+": memprofile:", err)
			}
			f.Close()
		}
	}
	return stop, nil
}

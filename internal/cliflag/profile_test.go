package cliflag

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfilesWritesBoth(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles("test", cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1e6; i++ {
		sink += i * i
	}
	_ = sink
	stop()
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(p))
		}
	}
}

func TestStartProfilesOff(t *testing.T) {
	stop, err := StartProfiles("test", "", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
}

func TestStartProfilesBadPath(t *testing.T) {
	if _, err := StartProfiles("test", filepath.Join(t.TempDir(), "missing", "cpu.pprof"), ""); err == nil {
		t.Error("uncreatable CPU profile path accepted")
	}
}

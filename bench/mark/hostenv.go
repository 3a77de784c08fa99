package mark

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// HostEnv is the environment block every run records.
type HostEnv struct {
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	LoadAvg    string
	// FSType is the filesystem type of the directory holding the data
	// and cache directories, as statfs reports it.
	FSType  string
	WorkDir string
}

// fsNames maps the statfs magic numbers a work directory is likely on.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
}

func readHostEnv(workDir string) HostEnv {
	env := HostEnv{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LoadAvg:    "unknown",
		FSType:     "unknown",
		WorkDir:    workDir,
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) >= 3 {
			env.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(workDir, &st); err == nil {
		if name, ok := fsNames[int64(st.Type)]; ok {
			env.FSType = name
		} else {
			env.FSType = fmt.Sprintf("0x%x", int64(st.Type))
		}
	}
	return env
}

package experiments

import "runtime"

// BenchEnv records the runtime environment a soak actually ran under: a
// latency quantile is only interpretable next to the GOMAXPROCS and CPU
// count that produced it.
type BenchEnv struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// CaptureBenchEnv samples the current process's environment.
func CaptureBenchEnv() BenchEnv {
	return BenchEnv{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

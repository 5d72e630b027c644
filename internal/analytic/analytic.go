// Package analytic provides closed-form performance models for scenarios
// simple enough to solve by hand: if the fluid simulation and the analytic
// model disagree there, the simulator has a bug. This package's own tests
// check a tick-by-tick CNN1 training task and RNN1 inference task, and one
// node's bandwidth share, against these predictions; no other package
// imports it yet.
package analytic

import (
	"fmt"
	"math"

	"kelp/internal/accel"
	"kelp/internal/workload"
)

// TrainingStepTime predicts a training task's step duration when its CPU
// phases run at the given rate factor: accelerator and transfer phases are
// constant, CPU phases stretch by 1/cpuFactor (given enough cores for full
// parallelism).
func TrainingStepTime(t *workload.Training, cpuFactor float64) (float64, error) {
	if cpuFactor <= 0 {
		return 0, fmt.Errorf("analytic: cpuFactor = %v", cpuFactor)
	}
	standalone := t.StandaloneStepTime()
	host := standalone * t.HostShare()
	return (standalone - host) + host/cpuFactor, nil
}

// TrainingThroughput is the steps/s corresponding to TrainingStepTime.
func TrainingThroughput(t *workload.Training, cpuFactor float64) (float64, error) {
	st, err := TrainingStepTime(t, cpuFactor)
	if err != nil {
		return 0, err
	}
	if st <= 0 {
		return 0, fmt.Errorf("analytic: non-positive step time")
	}
	return 1 / st, nil
}

// TrainingSlowdownFromPerf inverts a workload-level normalized performance
// into the implied host-phase stretch: perf = 1 / (1 - hs + hs*stretch).
func TrainingSlowdownFromPerf(hostShare, perf float64) (stretch float64, err error) {
	if hostShare <= 0 || hostShare >= 1 {
		return 0, fmt.Errorf("analytic: hostShare = %v", hostShare)
	}
	if perf <= 0 || perf > 1.5 {
		return 0, fmt.Errorf("analytic: perf = %v", perf)
	}
	return (1/perf - (1 - hostShare)) / hostShare, nil
}

// InferenceCapacity predicts a pipelined inference server's throughput
// ceiling: the binding stage among the CPU stage (cores at the given rate
// factor), the accelerator FIFO, and the pipeline depth over the per-request
// service time.
func InferenceCapacity(cfg workload.InferenceConfig, platform accel.Platform, cores float64, cpuFactor float64) (float64, error) {
	if cores <= 0 || cpuFactor <= 0 {
		return 0, fmt.Errorf("analytic: cores = %v, cpuFactor = %v", cores, cpuFactor)
	}
	iters := float64(cfg.IterationsPerRequest)
	cpuPerReq := cfg.CPUWorkPerIter * iters / cpuFactor
	accelPerReq := platform.ComputeTime(cfg.AccelWorkPerIter) * iters
	xferPerReq := platform.TransferTime(cfg.XferBytes) * iters

	cpuCap := cores / cpuPerReq
	accelCap := 1 / accelPerReq
	service := cpuPerReq + accelPerReq + xferPerReq
	pipelineCap := float64(cfg.MaxConcurrency) / service

	return math.Min(cpuCap, math.Min(accelCap, pipelineCap)), nil
}

// MMnWait approximates the mean queueing delay of an M/M/1 server at
// utilization rho with the given mean service time — a sanity reference
// for the inference server's latency inflation near the knee.
func MMnWait(service, rho float64) (float64, error) {
	if service <= 0 {
		return 0, fmt.Errorf("analytic: service = %v", service)
	}
	if rho < 0 || rho >= 1 {
		return 0, fmt.Errorf("analytic: rho = %v", rho)
	}
	return service * rho / (1 - rho), nil
}

// BandwidthShare predicts the proportional-share grant fraction for a task
// demanding d against background traffic b on a controller of capacity c.
func BandwidthShare(d, b, c float64) (float64, error) {
	if d < 0 || b < 0 || c <= 0 {
		return 0, fmt.Errorf("analytic: d=%v b=%v c=%v", d, b, c)
	}
	total := d + b
	if total <= c {
		return 1, nil
	}
	return c / total, nil
}

// LockstepRate predicts a synchronous cluster's service rate: the slowest
// worker's rate, the deterministic limit of the tail-at-scale composition
// when workers are steady.
func LockstepRate(workerRates []float64) (float64, error) {
	if len(workerRates) == 0 {
		return 0, fmt.Errorf("analytic: no workers")
	}
	min := workerRates[0]
	for _, r := range workerRates {
		if r <= 0 {
			return 0, fmt.Errorf("analytic: non-positive worker rate %v", r)
		}
		if r < min {
			min = r
		}
	}
	return min, nil
}

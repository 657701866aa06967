package main

import (
	"fmt"

	"hwatch/internal/scenario"
)

// The checks compare the program's outputs with properties that hold by
// construction of the inputs, or with results computed another way. Each
// returns nil or the first violation; a violation fails the operation
// whose output it is.

// mtuBytes is the paper's packet size; the byte buffer of the bottleneck
// holds BufferPkts of them.
const mtuBytes = 1500

// dumbbellLimits is what a dumbbell's inputs promise about its outputs.
type dumbbellLimits struct {
	baseRTTms float64 // four link delays: no flow finishes faster
	// bufferBytes bounds the bottleneck queue: BufferPkts packets of at
	// most one MTU, whether the buffer counts bytes or packets.
	bufferBytes float64
}

func limitsOf(p scenario.DumbbellParams) dumbbellLimits {
	return dumbbellLimits{
		baseRTTms:   float64(4*p.LinkDelay) / 1e6,
		bufferBytes: float64(p.BufferPkts * mtuBytes),
	}
}

// expectedIncastFlows counts the short flows a dumbbell's incast epochs
// start: every short source once per epoch that begins inside the run.
func expectedIncastFlows(p scenario.DumbbellParams) int {
	n := 0
	for e := 0; e < p.Epochs; e++ {
		if p.FirstEpoch+int64(e)*p.EpochInterval < p.Duration {
			n += p.ShortSources
		}
	}
	return n
}

// checkDumbbellRun checks one dumbbell run: FCTs at least the base RTT,
// utilization not negative, the queue within its buffer, and no more
// flows done than started. Utilization has no upper bound here: the
// bottleneck telemetry counts a packet in the window its transmission
// starts, so a saturated window reads up to one packet above line rate
// (1.008 on Fig. 8's 100 us windows).
func checkDumbbellRun(r *scenario.Run, lim dumbbellLimits) error {
	if r.ShortDone > r.ShortAll {
		return fmt.Errorf("%s: %d flows done of %d started", r.Label, r.ShortDone, r.ShortAll)
	}
	for _, fct := range r.ShortFCTms.Values() {
		if fct < lim.baseRTTms {
			return fmt.Errorf("%s: FCT %.4f ms below the base RTT %.4f ms", r.Label, fct, lim.baseRTTms)
		}
	}
	for i, u := range r.Utilization.V {
		if !(u >= 0) {
			return fmt.Errorf("%s: utilization %.4f at t=%d ns is negative", r.Label, u, r.Utilization.T[i])
		}
	}
	for i, q := range r.QueueBytes.V {
		if q > lim.bufferBytes {
			return fmt.Errorf("%s: queue %.0f B at t=%d ns over the %.0f B buffer", r.Label, q, r.QueueBytes.T[i], lim.bufferBytes)
		}
	}
	return nil
}

// checkAllFlowsDone requires every planned short flow to start and finish.
func checkAllFlowsDone(r *scenario.Run, want int) error {
	if r.ShortAll != want || r.ShortDone != want {
		return fmt.Errorf("%s: %d/%d short flows done, want %d/%d", r.Label, r.ShortDone, r.ShortAll, want, want)
	}
	return nil
}

// checkFig8Order is the paper's Fig. 8 result: HWatch's mean short FCT is
// below DropTail's.
func checkFig8Order(hwatch, droptail *scenario.Run) error {
	h, d := hwatch.ShortFCTms.Mean(), droptail.ShortFCTms.Mean()
	if !(h < d) {
		return fmt.Errorf("mean short FCT: %s %.3f ms is not below %s %.3f ms", hwatch.Label, h, droptail.Label, d)
	}
	return nil
}

// checkDigest compares a digest with the one an independent path gave.
func checkDigest(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: digest %s, want %s", what, got, want)
	}
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

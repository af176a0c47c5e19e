package gpusim

import (
	"fmt"
	"io"

	"astra/internal/obs"
)

// ExportSpans copies the device's kernel records since the last Reset into
// a session tracer, shifted onto the session clock by offsetUs. Kernels
// land on the device track group (one track per stream); launch-to-start
// gaps become "queued" spans on the launch-queue group, making
// launch-overhead-bound schedules visually obvious. Track names are set
// idempotently, so per-batch exports accumulate into one coherent trace.
func (d *Device) ExportSpans(tr *obs.Tracer, offsetUs float64) {
	d.ExportSpansTo(tr, offsetUs, obs.PIDDevice, obs.PIDQueue, "")
}

// ExportSpansTo is ExportSpans onto explicit device and launch-queue pids,
// with a label prefixed to the track-group names — how each worker of a
// multi-GPU session gets its own pid block (obs.WorkerPID) in one trace.
func (d *Device) ExportSpansTo(tr *obs.Tracer, offsetUs float64, devPID, queuePID int, label string) {
	tr.SetProcessName(devPID, label+"device")
	tr.SetProcessName(queuePID, label+"launch queue")
	for s := range d.streams {
		tr.SetThreadName(devPID, s, fmt.Sprintf("stream %d", s))
		tr.SetThreadName(queuePID, s, fmt.Sprintf("stream %d queue", s))
	}
	for _, r := range d.Records() {
		tr.AddSpan(devPID, r.Stream, r.Name, "kernel",
			offsetUs+r.StartUs, r.EndUs-r.StartUs, map[string]interface{}{
				"tiles":        r.Tiles,
				"tile_time_us": r.TileTimeUs,
			})
		if gap := r.StartUs - r.LaunchUs; gap > 0 {
			tr.AddSpan(queuePID, r.Stream, r.Name+" (queued)", "queue",
				offsetUs+r.LaunchUs, gap, nil)
		}
	}
}

// Profile copies the device's kernel records since the last Reset into a
// self-contained obs.BatchProfile for the given data-parallel rank — the
// input format of internal/analyze. The samples are deep copies: unlike
// Records, the result stays valid across Reset.
func (d *Device) Profile(worker int) obs.BatchProfile {
	p := obs.BatchProfile{
		Worker:     worker,
		Streams:    len(d.streams),
		CommStream: -1,
		CPUUs:      d.cpuUs,
		EndUs:      d.simUs,
		NumSMs:     d.cfg.NumSMs,
		SMBusyUs:   d.smBusyUs,
		Kernels:    make([]obs.KernelSample, d.recUsed),
	}
	for i, r := range d.Records() {
		p.Kernels[i] = obs.KernelSample{
			Name:       r.Name,
			Stream:     r.Stream,
			LaunchUs:   r.LaunchUs,
			StartUs:    r.StartUs,
			EndUs:      r.EndUs,
			SMTimeUs:   r.SMTimeUs,
			FreeUs:     r.FreeUs,
			WaitUs:     r.WaitUs,
			WaitStream: r.WaitStream,
			WaitTag:    r.WaitTag,
		}
	}
	return p
}

// WriteChromeTrace exports the device's kernel records since the last
// Reset in the Chrome trace-event object form ({"traceEvents": [...]}),
// with "M"-phase metadata naming the device and launch-queue processes and
// one labeled track per stream, so a simulated schedule opens in Perfetto
// or chrome://tracing exactly like a real GPU profile.
func (d *Device) WriteChromeTrace(w io.Writer) error {
	tr := obs.NewTracer()
	d.ExportSpans(tr, 0)
	if err := tr.WriteChromeTrace(w); err != nil {
		return fmt.Errorf("gpusim: %w", err)
	}
	return nil
}

package model

import "math"

// StepFilter is what a read under SelectHints with Lookback set may keep of
// one stream of samples (docs/ARCHITECTURE.md §7, "What a read may drop").
// The reader evaluates at the steps t = End − k·Step and a step sees the
// window (t − width, t]: width is Range for a matrix selector and Lookback+1
// for a bare one, whose window is [t − Lookback, t]. Every sample belongs to
// the step at or after it, its cell. A matrix selector keeps every sample its
// cell's window sees. A bare selector keeps, per cell, only the newest sample,
// and only if the window sees it: the one sample the evaluator reads at that
// step. A stream whose samples go through Append in time order comes out as
// exactly that; a read that trims parts of a stream separately (chunks merged
// with an out-of-order buffer, overlapping blocks, the hot/cold seam, the
// replicas of a ring) keeps a superset of it, which answers the same.
//
// A StepFilter holds the position of one stream: copy the one
// SelectHints.StepFilter returns for every stream.
type StepFilter struct {
	end, step, width int64
	newest           bool // bare selector: one sample per cell
	one              bool // bare selector at one step: the newest sample of [Start, End]
	cell             int64
	held             bool // newest: the output's last sample is cell's
}

// StepFilter returns the filter a read under h applies to each stream, or nil
// when h keeps every sample in [Start, End]: Lookback unset, or a matrix
// window at least as long as the step (the windows then cover the read).
func (h SelectHints) StepFilter() *StepFilter {
	if span := h.End - h.Start; h.Lookback <= 0 || h.End < h.Start || span < 0 || span == math.MaxInt64 {
		return nil // nothing to trim, or a window too wide to compute on
	}
	f := &StepFilter{end: h.End, step: h.Step, width: h.Range}
	switch {
	case h.Range > 0:
		if h.Step <= 0 || h.Range >= h.Step {
			return nil
		}
	case h.Step <= 0:
		// One step, at End, whose window is the read.
		f.newest, f.one = true, true
		f.step = h.End - h.Start + 1
		f.width = f.step
	default:
		f.newest, f.width = true, h.Lookback+1
	}
	if h.Start < math.MinInt64+f.step {
		return nil
	}
	f.cell = f.grid(h.Start) - f.step
	return f
}

// grid returns the least step time at or after t, for t <= end.
func (f *StepFilter) grid(t int64) int64 { return t + (f.end-t)%f.step }

// One reports whether the read keeps at most one sample of a stream, the
// newest in [Start, End]: a bare selector read at one step.
func (f *StepFilter) One() bool { return f.one }

// Append appends the sample (t, v) to dst if its step can see it, in place of
// the sample of the same cell it supersedes. Samples come in increasing time
// order and within [Start, End].
func (f *StepFilter) Append(dst []Sample, t int64, v float64) []Sample {
	if t > f.cell {
		// The first sample of a new cell, whose step is found without a
		// division while samples are no sparser than the steps.
		if f.cell += f.step; f.cell < t {
			f.cell = f.grid(t)
		}
		f.held = false
	} else if f.held {
		dst[len(dst)-1] = Sample{T: t, V: v} // newer than the cell's kept sample, so seen too
		return dst
	}
	if f.cell-t >= f.width {
		return dst
	}
	f.held = f.newest
	return append(dst, Sample{T: t, V: v})
}

// Until returns the newest time Append can still keep of a run of samples
// ending at maxt (a chunk, clipped to the read) whose successor in the stream
// is at next: maxt when the window of maxt's step reaches it and, for a bare
// selector, next is not in that cell to supersede it; otherwise the step
// before, as nothing of maxt's cell in the run is kept. next is
// math.MaxInt64 when nothing of the read follows. A read stops the run after
// Until, and skips it whole when Until is before its first sample; leaving
// those samples out changes nothing Append keeps of the samples after them.
func (f *StepFilter) Until(maxt, next int64) int64 {
	g := f.grid(maxt)
	if g-f.width < maxt && !(f.newest && next <= g) {
		return maxt
	}
	return g - f.step
}

// Bound is at most how many of n samples spanning [mint, maxt] Append keeps
// for a bare selector — one per cell — and an estimate of it for a matrix
// selector, from the share of each step its window covers.
func (f *StepFilter) Bound(n int, mint, maxt int64) int {
	cells := (f.grid(maxt)-f.grid(mint))/f.step + 1
	if !f.newest {
		cells += int64(float64(n) * float64(f.width) / float64(f.step))
	}
	return int(min(int64(n), cells))
}

package main

import (
	"sort"
	"strings"
	"time"

	"radcrit/internal/campaign"
	"radcrit/internal/service"
	"radcrit/internal/store"
)

// jobRec is everything the load generator knows about one job: its plan,
// the client-side timestamps, and the daemon's snapshot and result.
type jobRec struct {
	Index     int
	Probe     bool // a resubmission made to measure store-hit jobs
	Tenant    string
	Plan      *campaign.Plan
	Due       time.Time // when the job was due to be sent
	Sent      time.Time
	Responded time.Time
	Refused   bool
	Err       string
	Snap      service.Snapshot
	Result    *service.JobResult
	ResultDur time.Duration
	bad       bool // failed a correctness check
}

// computed reports whether the job ran any cell instead of serving every
// cell from the store.
func (j *jobRec) computed() bool {
	if j.Result == nil {
		return false
	}
	for _, c := range j.Result.Cells {
		if !c.Cached {
			return true
		}
	}
	return false
}

func (j *jobRec) ok() bool {
	return !j.Refused && j.Err == "" && j.Snap.State == service.StateDone && j.Snap.Finished != nil && j.Snap.Started != nil
}

// latency is the job's end-to-end time, from when it was due to the
// daemon's Finished timestamp.
func (j *jobRec) latency() time.Duration { return j.Snap.Finished.Sub(j.Due) }

// interval is a half-open span of the tracer's time axis.
type interval struct{ lo, hi int64 }

// unionLen returns how much of [lo, hi) the intervals cover, counting
// overlapping intervals once.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, k int) bool { return clipped[i].lo < clipped[k].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		total += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return total
}

// selfTime is a parent span's duration minus the part of it that its
// children cover. Children may overlap each other, as spans of two
// workers do; overlapped time is subtracted once.
func selfTime(parent interval, children []interval) int64 {
	return parent.hi - parent.lo - unionLen(children, parent.lo, parent.hi)
}

// jobWindow is a job's place on the tracer's axis plus what it may own.
type jobWindow struct {
	rec             *jobRec
	due, sent, resp int64
	created, start  int64
	finish          int64
	specs, keys     map[string]bool
	children        []interval // build, store, arch and kernel spans
	engine          []interval // arch and kernel spans
	engineBusy      int64
}

// attribute assigns each instance and store span to the job that owns it:
// among jobs running when the instance was built (or the store was
// called) and whose plan names that kernel, device or cell, the one that
// started last. A plan's kernels and devices are built right after the
// job starts, so the most recent start is the builder even when another
// executor is running a job of the same shape.
func attribute(tr *tracer, jobs []*jobRec, spans []span, insts []instance) ([]*jobWindow, []span) {
	var wins []*jobWindow
	for _, j := range jobs {
		if !j.ok() {
			continue
		}
		w := &jobWindow{rec: j,
			due: tr.at(j.Due), sent: tr.at(j.Sent), resp: tr.at(j.Responded),
			created: tr.at(j.Snap.Created), start: tr.at(*j.Snap.Started), finish: tr.at(*j.Snap.Finished),
			specs: map[string]bool{}, keys: map[string]bool{}}
		for i, c := range j.Plan.Cells {
			w.specs["k:"+c.Kernel] = true
			w.specs["d:"+c.Device] = true
			w.keys[store.TenantPrefix(j.Snap.Tenant)+j.Plan.CellKey(i)] = true
		}
		wins = append(wins, w)
	}
	owner := func(at int64, match func(*jobWindow) bool) *jobWindow {
		var best *jobWindow
		for _, w := range wins {
			if w.start <= at && at <= w.finish && match(w) && (best == nil || w.start > best.start) {
				best = w
			}
		}
		return best
	}
	instOwner := make([]*jobWindow, len(insts)+1)
	for id := 1; id <= len(insts); id++ {
		in := insts[id-1]
		tag := "d:" + in.Spec
		if in.Kernel {
			tag = "k:" + in.Spec
		}
		instOwner[id] = owner(in.Created, func(w *jobWindow) bool { return w.specs[tag] })
	}
	out := make([]span, len(spans))
	for i, s := range spans {
		var w *jobWindow
		if s.Inst > 0 && s.Inst < len(instOwner) {
			w = instOwner[s.Inst]
		} else if s.Key != "" {
			w = owner(s.Start, func(w *jobWindow) bool { return w.keys[s.Key] })
		}
		if w != nil {
			s.Job, s.Parent = w.rec.Snap.ID, "service.run"
			iv := interval{s.Start, s.End}
			w.children = append(w.children, iv)
			if strings.HasPrefix(s.Layer, "kernels.") || strings.HasPrefix(s.Layer, "arch.") {
				w.engine = append(w.engine, iv)
				w.engineBusy += s.dur()
			}
		}
		out[i] = s
	}
	return wins, out
}

// jobSpans renders the job-level spans: the job itself, its generator
// lateness, submit call, queue wait and run.
func jobSpans(w *jobWindow) []span {
	id := w.rec.Snap.ID
	return []span{
		{Layer: "job", Start: w.due, End: w.finish, Job: id},
		{Layer: "loadgen.late", Start: w.due, End: w.sent, Job: id, Parent: "job"},
		{Layer: "api.submit", Start: w.sent, End: w.resp, Job: id, Parent: "job"},
		{Layer: "service.queue", Start: w.created, End: w.start, Job: id, Parent: "job"},
		{Layer: "service.run", Start: w.start, End: w.finish, Job: id, Parent: "job"},
	}
}

// layerStat is one layer's busy time, self time and call count.
type layerStat struct {
	Busy  time.Duration `json:"busy_ns"`
	Self  time.Duration `json:"self_ns"`
	Count int           `json:"count"`
}

// ratioStat is a ratio together with its base, so no share is read
// without knowing what it is a share of.
type ratioStat struct {
	Value float64 `json:"value"`
	Num   float64 `json:"num"`
	Base  float64 `json:"base"`
	Of    string  `json:"of"`
}

// traceSummary is what a traced run writes beside its spans.
type traceSummary struct {
	Layers       map[string]layerStat `json:"layers"`
	Ratios       map[string]ratioStat `json:"ratios"`
	Tails        map[string]string    `json:"tails"`
	Unattributed int                  `json:"unattributed_spans"`
}

// layerMetrics reduces a traced run to the per-layer metrics, the summary
// written beside the spans, and every span with its job attached. Lane
// time counts each computing job's run once per plan worker.
func layerMetrics(tr *tracer, jobs []*jobRec, spans []span, insts []instance) (map[string]float64, traceSummary, []span) {
	wins, spans := attribute(tr, jobs, spans, insts)
	m := map[string]float64{}
	sum := traceSummary{Layers: map[string]layerStat{}, Ratios: map[string]ratioStat{}, Tails: map[string]string{}}
	setRatio := func(name string, num, base float64, of string) {
		r := ratioStat{Value: ratio(num, base), Num: num, Base: base, Of: of}
		sum.Ratios[name] = r
		m[name] = r.Value
	}

	var all []span
	all = append(all, spans...)
	for _, w := range wins {
		all = append(all, jobSpans(w)...)
	}
	// Busy and count per layer; self time equals busy for leaf spans.
	for _, s := range all {
		st := sum.Layers[s.Layer]
		st.Busy += time.Duration(s.dur())
		st.Self += time.Duration(s.dur())
		st.Count++
		sum.Layers[s.Layer] = st
		if s.Job == "" && s.Layer != "job" {
			sum.Unattributed++
		}
	}

	var kernRuns, kernMasked, resolves, sdc float64
	var gets, hits, puts, putBytes float64
	var getUs, putUs []float64
	runs := map[string]float64{}
	for _, s := range spans {
		switch {
		case strings.HasSuffix(s.Layer, ".golden"):
		case strings.HasPrefix(s.Layer, "kernels."):
			runs[s.Layer] += float64(s.N)
			kernRuns += float64(s.N)
			kernMasked += float64(s.Flag)
		case strings.HasPrefix(s.Layer, "arch."):
			resolves++
			sdc += float64(s.Flag)
		case s.Layer == "store.get":
			gets++
			hits += float64(s.Flag)
			getUs = append(getUs, float64(s.dur())/1e3)
		case s.Layer == "store.put":
			puts++
			putBytes += float64(s.N)
			putUs = append(putUs, float64(s.dur())/1e3)
		}
	}
	for _, fam := range kernelFamilies {
		k := "kernels." + fam
		busy := sum.Layers[k].Busy.Seconds()
		m["registry."+fam+".build_s"] = sum.Layers["registry."+fam].Busy.Seconds()
		m[k+".runs"] = runs[k]
		m[k+".busy_s"] = busy + sum.Layers[k+".golden"].Busy.Seconds()
		m[k+".run_us_mean"] = ratio(busy*1e6, runs[k])
	}
	for _, d := range deviceNames {
		st := sum.Layers["arch."+d]
		m["arch."+d+".resolves"] = float64(st.Count)
		m["arch."+d+".busy_s"] = st.Busy.Seconds()
	}
	setRatio("kernels.masked_share", kernMasked, kernRuns, "kernel runs")
	setRatio("arch.sdc_share", sdc, resolves, "strikes resolved")
	m["store.gets"] = gets
	setRatio("store.hit_ratio", hits, gets, "store gets")
	m["store.get_us_p50"] = median(getUs)
	m["store.puts"] = puts
	m["store.put_us_p50"] = median(putUs)
	m["store.put_bytes"] = putBytes

	var submitMs, resultMs, queueMs, runMs, nonEngineMs, jobMs, hitMs, lateMs []float64
	var engineBusy, laneTime float64
	var covered, wall int64
	refused := 0
	for _, j := range jobs {
		if j.Refused {
			refused++
		}
		if !j.Sent.IsZero() && !j.Responded.IsZero() {
			submitMs = append(submitMs, ms(j.Responded.Sub(j.Sent)))
			lateMs = append(lateMs, ms(j.Sent.Sub(j.Due)))
		}
		if j.Result != nil {
			resultMs = append(resultMs, ms(j.ResultDur))
		}
	}
	for _, w := range wins {
		queueMs = append(queueMs, float64(w.start-w.created)/1e6)
		run := interval{w.start, w.finish}
		if !w.rec.computed() {
			hitMs = append(hitMs, ms(w.rec.latency()))
		} else {
			runMs = append(runMs, float64(run.hi-run.lo)/1e6)
			nonEngineMs = append(nonEngineMs, float64(selfTime(run, w.engine))/1e6)
			jobMs = append(jobMs, ms(w.rec.latency()))
			engineBusy += float64(w.engineBusy)
			laneTime += float64(run.hi-run.lo) * float64(max(w.rec.Plan.Workers, 1))
		}
		// A job's wall is covered by its generator lateness, submit call,
		// queue wait and the layer spans inside its run.
		ivs := append([]interval{{w.due, w.sent}, {w.sent, w.resp}, {w.created, w.start}}, w.children...)
		c := unionLen(ivs, w.due, w.finish)
		covered += c
		wall += w.finish - w.due
		st := sum.Layers["service.run"]
		st.Self -= time.Duration(unionLen(w.children, run.lo, run.hi))
		sum.Layers["service.run"] = st
		st = sum.Layers["job"]
		st.Self -= time.Duration(c)
		sum.Layers["job"] = st
	}
	m["api.submit_ms_p50"] = median(submitMs)
	m["api.submit_ms_tail"], _, _ = tail(submitMs)
	m["api.result_ms_p50"] = median(resultMs)
	m["api.refused"] = float64(refused)
	m["service.queue_wait_ms_p50"] = median(queueMs)
	m["service.queue_wait_ms_tail"], _, _ = tail(queueMs)
	m["service.run_ms_p50"] = median(runMs)
	m["service.non_engine_ms_p50"] = median(nonEngineMs)
	m["service.job_p50_ms"] = median(jobMs)
	m["service.hit_job_ms_p50"] = median(hitMs)
	m["service.job_tail_ms"], _, _ = tail(jobMs)
	m["loadgen.late_ms_max"] = percentile(lateMs, 100)
	setRatio("campaign.worker_busy_share", engineBusy, laneTime, "job run ns x plan workers, computing jobs")
	setRatio("campaign.idle_share", laneTime-engineBusy, laneTime, "job run ns x plan workers, computing jobs")
	setRatio("trace.coverage", float64(covered), float64(wall), "job wall ns, due to finished")
	for name, xs := range map[string][]float64{
		"api.submit_ms_tail": submitMs, "service.queue_wait_ms_tail": queueMs, "service.job_tail_ms": jobMs,
	} {
		sum.Tails[name] = tailLabel(xs)
	}
	for k, v := range m {
		if v != v { // an empty sample: nothing to report
			m[k] = 0
		}
	}
	return m, sum, all
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Package report renders a self-contained HTML "observatory" for one
// simulation run: utilization and power timelines, a per-machine
// swimlane of placements and migrations, the scheduler's decision audit
// log, and per-job critical-path breakdowns. Everything — styles,
// scripts, SVG charts — is inlined, so the file opens offline with no
// external assets, and every number is derived from simulated state, so
// a fixed seed produces a byte-identical report.
package report

import (
	"bytes"
	"fmt"
	"html"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/critpath"
	"repro/internal/metrics"
	"repro/internal/perfstat"
	"repro/internal/resource"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// Rendering caps keep reports loadable for long runs. Truncation is
// always called out in the rendered section header, never silent.
const (
	maxAuditRows  = 2000
	maxLaneEvents = 4000
)

// JobPath pairs a job with its critical-path digest.
type JobPath struct {
	Name string
	Path critpath.Summary
}

// Data is everything the observatory renders. Any field may be empty;
// the corresponding view then states that nothing was recorded instead
// of disappearing, so a report always shows all four views.
type Data struct {
	// Title heads the report, e.g. "quickstart" or "job: Sort".
	Title string
	// Seed is the simulation seed the run used.
	Seed int64
	// SimEnd is the simulated instant the run finished.
	SimEnd time.Duration
	// Samples is the utilization/power series from a metrics.Recorder.
	Samples []metrics.Sample
	// EnergyWh is the recorder's integrated energy.
	EnergyWh float64
	// Events are the run's trace events (placements, tasks, migrations,
	// power transitions) for the swimlane.
	Events []trace.Event
	// Audit holds the scheduler's decision records, oldest first, and
	// AuditDropped how many the ring buffer discarded before them.
	Audit        []audit.Record
	AuditDropped uint64
	// Metrics is the run's metrics-registry snapshot.
	Metrics trace.Snapshot
	// Perf is the run's performance-attribution snapshot: algorithmic
	// cost counters and the hierarchical span tree. The rendered section
	// shows counters and span hit counts only — span wall-clock times are
	// deliberately left out so the report stays byte-identical for a
	// fixed seed (they live in PERF.json's wall section instead).
	Perf *perfstat.Snapshot
	// Jobs holds one critical-path digest per completed job.
	Jobs []JobPath
	// TimeSeries holds the run's windowed telemetry snapshots (from a
	// timeseries.Collector); one chart renders per series name.
	TimeSeries []timeseries.SeriesSnapshot
	// SLO and SLORows carry the SLO engine's summary and per-window
	// evaluations for the burn panel.
	SLO     *timeseries.SLOReport
	SLORows []timeseries.WindowEval
	// Search holds policy-search candidates when the report accompanies a
	// SEARCH.json sweep (hybridmr-bench -sweep policy -report);
	// the section is omitted entirely for ordinary runs. The winner's
	// decision trail lands in Audit, so the frontier links back to the
	// audit table below.
	Search []SearchPoint
}

// SearchPoint is one policy-search candidate: the canonical policy
// string, the three minimized objectives, and its frontier standing.
type SearchPoint struct {
	Policy           string
	MeanJCTSec       float64
	EnergyWh         float64
	SLAViolationRate float64
	Pareto           bool
	Winner           bool
}

// Write renders the observatory to w as a single HTML document.
func Write(w io.Writer, d Data) error {
	var b bytes.Buffer
	head(&b, d)
	timeline(&b, d)
	timeSeriesSection(&b, d)
	sloSection(&b, d)
	searchSection(&b, d)
	swimlane(&b, d)
	critPaths(&b, d)
	perfSection(&b, d)
	faultSection(&b, d)
	auditTable(&b, d)
	metricsTables(&b, d)
	b.WriteString("</body></html>\n")
	_, err := w.Write(b.Bytes())
	return err
}

const style = `body{font:14px/1.45 system-ui,sans-serif;margin:24px auto;max-width:960px;color:#1a2230;background:#fff}
h1{font-size:20px}h2{font-size:16px;border-bottom:1px solid #d6dbe4;padding-bottom:4px;margin-top:32px}
table{border-collapse:collapse;width:100%;font-size:13px}
th,td{text-align:left;padding:3px 8px;border-bottom:1px solid #edf0f4;vertical-align:top}
th{background:#f4f6f9;position:sticky;top:0}
.num{text-align:right;font-variant-numeric:tabular-nums}
.dim{color:#78818f}.mono{font-family:ui-monospace,monospace;font-size:12px}
svg{display:block;background:#fafbfc;border:1px solid #e4e8ee;border-radius:4px}
input#af{width:100%;box-sizing:border-box;padding:6px 8px;margin:8px 0;border:1px solid #c9d0da;border-radius:4px;font:inherit}
.legend span{display:inline-block;margin-right:14px;font-size:12px}
.legend i{display:inline-block;width:10px;height:10px;border-radius:2px;margin-right:4px}`

// palette colors categories and phases; assignment is by sorted-name
// index, so it never depends on event order.
var palette = []string{"#3f72cf", "#d98f2b", "#4da06a", "#c55a5a", "#8a6fc9", "#4aa3b8", "#b0649b", "#7d8a49"}

func esc(s string) string { return html.EscapeString(s) }

func fsec(d time.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()) }

func head(b *bytes.Buffer, d Data) {
	fmt.Fprintf(b, "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n<title>HybridMR observatory — %s</title>\n<style>%s</style>\n</head><body>\n", esc(d.Title), style)
	fmt.Fprintf(b, "<h1>HybridMR observatory — %s</h1>\n", esc(d.Title))
	fmt.Fprintf(b, "<p class=\"dim\">seed %d · %ss simulated · %d trace events · %d audit records · %d jobs profiled",
		d.Seed, fsec(d.SimEnd), len(d.Events), len(d.Audit), len(d.Jobs))
	if d.EnergyWh > 0 {
		fmt.Fprintf(b, " · %.1f Wh", d.EnergyWh)
	}
	b.WriteString("</p>\n")
}

// timeline renders mean utilization per resource and total power /
// powered-on PMs over simulated time.
func timeline(b *bytes.Buffer, d Data) {
	b.WriteString("<h2>Utilization &amp; power timeline</h2>\n")
	if len(d.Samples) == 0 {
		b.WriteString("<p class=\"dim\">no utilization samples recorded for this run</p>\n")
		return
	}
	const w, h, pad = 920.0, 150.0, 30.0
	end := d.Samples[len(d.Samples)-1].At
	if end <= 0 {
		end = time.Second
	}
	x := func(t time.Duration) float64 { return pad + (w-2*pad)*float64(t)/float64(end) }

	// Utilization: one polyline per resource kind, y in [0,1].
	kinds := resource.Kinds()
	b.WriteString("<div class=\"legend\">")
	for i, k := range kinds {
		fmt.Fprintf(b, "<span><i style=\"background:%s\"></i>%s</span>", palette[i%len(palette)], esc(k.String()))
	}
	b.WriteString("</div>\n")
	fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n", w, h, w, h)
	axes(b, w, h, pad, end, "util")
	for i, k := range kinds {
		var pts strings.Builder
		for _, s := range d.Samples {
			u := s.Util.Get(k)
			fmt.Fprintf(&pts, "%.1f,%.1f ", x(s.At), h-pad-(h-2*pad)*u)
		}
		fmt.Fprintf(b, "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\"/>\n",
			strings.TrimSpace(pts.String()), palette[i%len(palette)])
	}
	b.WriteString("</svg>\n")

	// Power: watts polyline plus PMs-on step line scaled to the chart.
	maxW, maxOn := 1.0, 1
	for _, s := range d.Samples {
		if s.PowerW > maxW {
			maxW = s.PowerW
		}
		if s.PMsOn > maxOn {
			maxOn = s.PMsOn
		}
	}
	fmt.Fprintf(b, "<div class=\"legend\"><span><i style=\"background:%s\"></i>power (max %.0f W)</span><span><i style=\"background:%s\"></i>PMs on (max %d)</span></div>\n",
		palette[3], maxW, palette[2], maxOn)
	fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n", w, h, w, h)
	axes(b, w, h, pad, end, "power")
	var pw, on strings.Builder
	for _, s := range d.Samples {
		fmt.Fprintf(&pw, "%.1f,%.1f ", x(s.At), h-pad-(h-2*pad)*s.PowerW/maxW)
		fmt.Fprintf(&on, "%.1f,%.1f ", x(s.At), h-pad-(h-2*pad)*float64(s.PMsOn)/float64(maxOn))
	}
	fmt.Fprintf(b, "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\"/>\n", strings.TrimSpace(pw.String()), palette[3])
	fmt.Fprintf(b, "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\" stroke-dasharray=\"4 3\"/>\n", strings.TrimSpace(on.String()), palette[2])
	b.WriteString("</svg>\n")
}

// axes draws the chart frame and time ticks shared by both timelines.
func axes(b *bytes.Buffer, w, h, pad float64, end time.Duration, kind string) {
	fmt.Fprintf(b, "<rect x=\"%.0f\" y=\"%.0f\" width=\"%.0f\" height=\"%.0f\" fill=\"none\" stroke=\"#c9d0da\"/>\n",
		pad, pad, w-2*pad, h-2*pad)
	for i := 0; i <= 4; i++ {
		t := time.Duration(float64(end) * float64(i) / 4)
		xx := pad + (w-2*pad)*float64(i)/4
		fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%.0f\" font-size=\"10\" fill=\"#78818f\" text-anchor=\"middle\">%ss</text>\n",
			xx, h-pad+14, fsec(t))
	}
	if kind == "util" {
		fmt.Fprintf(b, "<text x=\"%.0f\" y=\"%.0f\" font-size=\"10\" fill=\"#78818f\">100%%</text>\n", 2.0, pad+4)
		fmt.Fprintf(b, "<text x=\"%.0f\" y=\"%.0f\" font-size=\"10\" fill=\"#78818f\">0%%</text>\n", 2.0, h-pad)
	}
}

// timeSeriesSection renders one chart per windowed series name: a
// polyline per label, the y-axis scaled to the series' maximum value
// (rate for counters, mean for gauges, p99 for histograms).
func timeSeriesSection(b *bytes.Buffer, d Data) {
	b.WriteString("<h2>Windowed time series</h2>\n")
	if len(d.TimeSeries) == 0 {
		b.WriteString("<p class=\"dim\">no windowed telemetry recorded for this run (enable with -timeseries)</p>\n")
		return
	}
	// Group label streams under their series name; snapshots arrive in
	// (name, label) order, so grouping preserves determinism.
	type group struct {
		name    string
		kind    timeseries.Kind
		streams []timeseries.SeriesSnapshot
	}
	var groups []group
	for _, s := range d.TimeSeries {
		if n := len(groups); n > 0 && groups[n-1].name == s.Name {
			groups[n-1].streams = append(groups[n-1].streams, s)
			continue
		}
		groups = append(groups, group{name: s.Name, kind: s.Kind, streams: []timeseries.SeriesSnapshot{s}})
	}

	const w, h, pad = 920.0, 110.0, 26.0
	var end time.Duration
	for _, g := range groups {
		for _, s := range g.streams {
			if n := len(s.Points); n > 0 && s.Points[n-1].End > end {
				end = s.Points[n-1].End
			}
		}
	}
	if end <= 0 {
		end = time.Second
	}
	for _, g := range groups {
		maxV := 0.0
		for _, s := range g.streams {
			for _, p := range s.Points {
				if v := p.Value(g.kind); v > maxV {
					maxV = v
				}
			}
		}
		if maxV <= 0 {
			maxV = 1
		}
		unit := map[timeseries.Kind]string{
			timeseries.KindCounter: "rate/s", timeseries.KindGauge: "mean", timeseries.KindHist: "p99",
		}[g.kind]
		fmt.Fprintf(b, "<p><b class=\"mono\">%s</b> <span class=\"dim\">(%s %s, max %.4g)</span>", esc(g.name), g.kind, unit, maxV)
		if len(g.streams) > 1 || g.streams[0].Label != "" {
			b.WriteString(" <span class=\"legend\">")
			for i, s := range g.streams {
				label := s.Label
				if label == "" {
					label = "(all)"
				}
				fmt.Fprintf(b, "<span><i style=\"background:%s\"></i>%s</span>", palette[i%len(palette)], esc(label))
			}
			b.WriteString("</span>")
		}
		b.WriteString("</p>\n")
		fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n", w, h, w, h)
		axes(b, w, h, pad, end, "ts")
		for i, s := range g.streams {
			var pts strings.Builder
			for _, p := range s.Points {
				mid := p.Start + (p.End-p.Start)/2
				xx := pad + (w-2*pad)*float64(mid)/float64(end)
				yy := h - pad - (h-2*pad)*p.Value(g.kind)/maxV
				fmt.Fprintf(&pts, "%.1f,%.1f ", xx, yy)
			}
			fmt.Fprintf(b, "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\"/>\n",
				strings.TrimSpace(pts.String()), palette[i%len(palette)])
		}
		b.WriteString("</svg>\n")
	}
}

// sloSection renders the SLO burn panel: the per-objective budget table
// and, per objective, a window strip colored by alert state — green for
// clean windows, amber for ticket-level burn, red for page-level burn —
// so a deterministic chaos alert is visible at a glance.
func sloSection(b *bytes.Buffer, d Data) {
	b.WriteString("<h2>SLO error budgets &amp; burn-rate alerts</h2>\n")
	if d.SLO == nil || len(d.SLO.Objectives) == 0 {
		b.WriteString("<p class=\"dim\">no SLOs evaluated for this run (enable with -slo)</p>\n")
		return
	}
	fmt.Fprintf(b, "<p class=\"dim\">%d window(s) of %.0fs · %d page(s) · %d ticket(s)</p>\n",
		d.SLO.Windows, d.SLO.WindowS, d.SLO.Pages, d.SLO.Tickets)
	b.WriteString("<table><thead><tr><th>objective</th><th>condition</th><th class=\"num\">target</th><th class=\"num\">bad windows</th><th class=\"num\">budget consumed</th><th class=\"num\">first breach</th><th>alerts</th><th>verdict</th></tr></thead><tbody>\n")
	for _, o := range d.SLO.Objectives {
		cond := fmt.Sprintf("%s{%s} %s %s %g", o.Objective.Series, o.Objective.Label, o.Objective.Agg, o.Objective.Op, o.Objective.Threshold)
		breach := "—"
		if o.FirstBreachS >= 0 {
			breach = fmt.Sprintf("%.0fs", o.FirstBreachS)
		}
		var alerts []string
		for _, a := range o.Alerts {
			alerts = append(alerts, fmt.Sprintf("%s @%.0f–%.0fs (burn %.1f)", a.Severity, a.StartS, a.EndS, a.PeakBurn))
		}
		alertCell := "<span class=\"dim\">none</span>"
		if len(alerts) > 0 {
			alertCell = esc(strings.Join(alerts, "; "))
		}
		verdict := "<b style=\"color:#4da06a\">met</b>"
		if !o.Met {
			verdict = "<b style=\"color:#c55a5a\">missed</b>"
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"mono\">%s</td><td class=\"num\">%.2f</td><td class=\"num\">%d/%d</td><td class=\"num\">%.0f%%</td><td class=\"num\">%s</td><td>%s</td><td>%s</td></tr>\n",
			esc(o.Objective.Name), esc(cond), o.Objective.Target, o.BadWindows, o.Windows,
			o.BudgetConsumed*100, breach, alertCell, verdict)
	}
	b.WriteString("</tbody></table>\n")

	if len(d.SLORows) == 0 {
		return
	}
	// Burn strips: one row of window cells per objective.
	byObj := map[string][]timeseries.WindowEval{}
	var objOrder []string
	for _, r := range d.SLORows {
		if _, ok := byObj[r.Objective]; !ok {
			objOrder = append(objOrder, r.Objective)
		}
		byObj[r.Objective] = append(byObj[r.Objective], r)
	}
	const w, cellH, labelW = 920.0, 16.0, 180.0
	h := 8 + (cellH+6)*float64(len(objOrder))
	fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n", w, h, w, h)
	for oi, name := range objOrder {
		rows := byObj[name]
		y := 8 + (cellH+6)*float64(oi)
		fmt.Fprintf(b, "<text x=\"4\" y=\"%.1f\" font-size=\"11\">%s</text>\n", y+cellH-4, esc(name))
		cw := (w - labelW - 10) / float64(len(rows))
		for i, r := range rows {
			fill := "#dfe9df"
			switch {
			case r.Alert == "page":
				fill = "#c55a5a"
			case r.Alert == "ticket":
				fill = "#d98f2b"
			case r.GoodFrac < 1:
				fill = "#e8d9a8"
			}
			title := fmt.Sprintf("%s w%d [%.0f–%.0fs): good %.2f, burn fast %.1f / slow %.1f %s",
				name, r.Window, r.StartS, r.EndS, r.GoodFrac, r.BurnFast, r.BurnSlow, r.Alert)
			fmt.Fprintf(b, "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.0f\" fill=\"%s\"><title>%s</title></rect>\n",
				labelW+cw*float64(i), y, cw-1, cellH, fill, esc(title))
		}
	}
	b.WriteString("</svg>\n")
	b.WriteString("<div class=\"legend\"><span><i style=\"background:#dfe9df\"></i>clean</span><span><i style=\"background:#e8d9a8\"></i>burning</span><span><i style=\"background:#d98f2b\"></i>ticket</span><span><i style=\"background:#c55a5a\"></i>page</span></div>\n")
}

// searchSection renders the policy-search sweep: an energy-vs-JCT
// scatter with the Pareto frontier highlighted, and the candidate table.
// Like faultSection it renders nothing at all for runs without a sweep —
// ordinary simulation reports carry no search data.
func searchSection(b *bytes.Buffer, d Data) {
	if len(d.Search) == 0 {
		return
	}
	b.WriteString("<h2>Policy search — Pareto frontier</h2>\n")
	frontier := 0
	for _, p := range d.Search {
		if p.Pareto {
			frontier++
		}
	}
	fmt.Fprintf(b, "<p class=\"dim\">%d candidate(s), %d on the frontier; the winner's decision trail is in the audit table below</p>\n",
		len(d.Search), frontier)

	// Scatter: x = mean JCT, y = energy; both minimized, so better is
	// down-left. SLA shows in the hover title.
	minX, maxX := d.Search[0].MeanJCTSec, d.Search[0].MeanJCTSec
	minY, maxY := d.Search[0].EnergyWh, d.Search[0].EnergyWh
	for _, p := range d.Search {
		minX, maxX = min(minX, p.MeanJCTSec), max(maxX, p.MeanJCTSec)
		minY, maxY = min(minY, p.EnergyWh), max(maxY, p.EnergyWh)
	}
	if maxX <= minX {
		maxX = minX + 1
	}
	if maxY <= minY {
		maxY = minY + 1
	}
	const w, h, pad = 920.0, 220.0, 40.0
	sx := func(v float64) float64 { return pad + (w-2*pad)*(v-minX)/(maxX-minX) }
	sy := func(v float64) float64 { return h - pad - (h-2*pad)*(v-minY)/(maxY-minY) }
	fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n", w, h, w, h)
	fmt.Fprintf(b, "<rect x=\"%.0f\" y=\"%.0f\" width=\"%.0f\" height=\"%.0f\" fill=\"none\" stroke=\"#c9d0da\"/>\n",
		pad, pad, w-2*pad, h-2*pad)
	fmt.Fprintf(b, "<text x=\"%.0f\" y=\"%.0f\" font-size=\"10\" fill=\"#78818f\" text-anchor=\"middle\">mean JCT %.0f–%.0fs</text>\n",
		w/2, h-8, minX, maxX)
	fmt.Fprintf(b, "<text x=\"%.0f\" y=\"%.0f\" font-size=\"10\" fill=\"#78818f\">%.0f–%.0f Wh</text>\n",
		2.0, pad+4, minY, maxY)
	for _, p := range d.Search {
		fill, r := "#a9b2bf", 4.0
		if p.Pareto {
			fill, r = palette[0], 5.0
		}
		title := fmt.Sprintf("%s: jct %.1fs, %.1f Wh, sla-viol %.3f", p.Policy, p.MeanJCTSec, p.EnergyWh, p.SLAViolationRate)
		fmt.Fprintf(b, "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%.0f\" fill=\"%s\" fill-opacity=\"0.85\"><title>%s</title></circle>\n",
			sx(p.MeanJCTSec), sy(p.EnergyWh), r, fill, esc(title))
		if p.Winner {
			fmt.Fprintf(b, "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"9\" fill=\"none\" stroke=\"%s\" stroke-width=\"2\"/>\n",
				sx(p.MeanJCTSec), sy(p.EnergyWh), palette[3])
		}
	}
	b.WriteString("</svg>\n")
	fmt.Fprintf(b, "<div class=\"legend\"><span><i style=\"background:%s\"></i>Pareto-optimal</span><span><i style=\"background:#a9b2bf\"></i>dominated</span><span><i style=\"background:%s\"></i>winner (ring)</span></div>\n",
		palette[0], palette[3])

	b.WriteString("<table><thead><tr><th>policy</th><th class=\"num\">mean JCT (s)</th><th class=\"num\">energy (Wh)</th><th class=\"num\">SLA violation</th><th>standing</th></tr></thead><tbody>\n")
	for _, p := range d.Search {
		standing := "<span class=\"dim\">dominated</span>"
		switch {
		case p.Winner:
			standing = "<b>winner</b>"
		case p.Pareto:
			standing = "frontier"
		}
		fmt.Fprintf(b, "<tr><td class=\"mono\">%s</td><td class=\"num\">%.1f</td><td class=\"num\">%.1f</td><td class=\"num\">%.3f</td><td>%s</td></tr>\n",
			esc(p.Policy), p.MeanJCTSec, p.EnergyWh, p.SLAViolationRate, standing)
	}
	b.WriteString("</tbody></table>\n")
}

// swimlane renders one lane per trace track (PMs, VMs, jobs, services):
// spans as bars colored by category, instants as ticks.
func swimlane(b *bytes.Buffer, d Data) {
	b.WriteString("<h2>Placement &amp; migration swimlane</h2>\n")
	if len(d.Events) == 0 {
		b.WriteString("<p class=\"dim\">no trace events recorded for this run</p>\n")
		return
	}
	events := d.Events
	truncated := 0
	if len(events) > maxLaneEvents {
		truncated = len(events) - maxLaneEvents
		events = events[:maxLaneEvents]
	}

	byTrack := map[string][]trace.Event{}
	catSet := map[string]bool{}
	var end time.Duration
	for _, ev := range events {
		byTrack[ev.Track] = append(byTrack[ev.Track], ev)
		catSet[ev.Category] = true
		if t := ev.Start + ev.Duration; t > end {
			end = t
		}
	}
	if end <= 0 {
		end = time.Second
	}
	tracks := make([]string, 0, len(byTrack))
	for t := range byTrack {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)
	cats := make([]string, 0, len(catSet))
	for c := range catSet {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	color := func(cat string) string {
		for i, c := range cats {
			if c == cat {
				return palette[i%len(palette)]
			}
		}
		return palette[0]
	}

	b.WriteString("<div class=\"legend\">")
	for _, c := range cats {
		fmt.Fprintf(b, "<span><i style=\"background:%s\"></i>%s</span>", color(c), esc(c))
	}
	b.WriteString("</div>\n")
	if truncated > 0 {
		fmt.Fprintf(b, "<p class=\"dim\">showing the first %d of %d events (%d truncated)</p>\n",
			maxLaneEvents, len(d.Events), truncated)
	}

	const w, pad, laneH = 920.0, 30.0, 20.0
	const labelW = 110.0
	h := pad + laneH*float64(len(tracks)) + pad
	x := func(t time.Duration) float64 { return labelW + (w-labelW-pad)*float64(t)/float64(end) }
	fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n", w, h, w, h)
	for li, track := range tracks {
		y := pad + laneH*float64(li)
		fmt.Fprintf(b, "<text x=\"4\" y=\"%.1f\" font-size=\"11\" fill=\"#1a2230\">%s</text>\n", y+laneH-7, esc(track))
		fmt.Fprintf(b, "<line x1=\"%.0f\" y1=\"%.1f\" x2=\"%.0f\" y2=\"%.1f\" stroke=\"#edf0f4\"/>\n",
			labelW, y+laneH, w-pad, y+laneH)
		for _, ev := range byTrack[track] {
			title := fmt.Sprintf("%s/%s %s @%ss", ev.Category, ev.Name, track, fsec(ev.Start))
			if ev.Instant {
				fmt.Fprintf(b, "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"%s\" stroke-width=\"2\"><title>%s</title></line>\n",
					x(ev.Start), y+3, x(ev.Start), y+laneH-3, color(ev.Category), esc(title))
				continue
			}
			x0, x1 := x(ev.Start), x(ev.Start+ev.Duration)
			if x1-x0 < 1 {
				x1 = x0 + 1
			}
			fmt.Fprintf(b, "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" fill=\"%s\" fill-opacity=\"0.75\"><title>%s (%ss)</title></rect>\n",
				x0, y+4, x1-x0, laneH-8, color(ev.Category), esc(title), fsec(ev.Duration))
		}
	}
	b.WriteString("</svg>\n")
}

// critPaths renders each job's critical path as a phase-stacked bar plus
// wait/run and straggler attribution.
func critPaths(b *bytes.Buffer, d Data) {
	b.WriteString("<h2>Per-job critical paths</h2>\n")
	if len(d.Jobs) == 0 {
		b.WriteString("<p class=\"dim\">no completed jobs to profile</p>\n")
		return
	}
	// Phase colors by sorted kind name across all jobs, so the same
	// phase gets the same color in every bar.
	kindSet := map[string]bool{}
	for _, j := range d.Jobs {
		for _, p := range j.Path.Phases {
			kindSet[p.Kind] = true
		}
	}
	kinds := make([]string, 0, len(kindSet))
	for k := range kindSet {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	color := func(kind string) string {
		for i, k := range kinds {
			if k == kind {
				return palette[i%len(palette)]
			}
		}
		return palette[0]
	}
	b.WriteString("<div class=\"legend\">")
	for _, k := range kinds {
		fmt.Fprintf(b, "<span><i style=\"background:%s\"></i>%s</span>", color(k), esc(k))
	}
	b.WriteString("</div>\n")

	const w, barH = 920.0, 26.0
	const labelW = 110.0
	for _, j := range d.Jobs {
		mk := j.Path.MakespanSec
		if mk <= 0 {
			mk = 1
		}
		fmt.Fprintf(b, "<p><b>%s</b> — makespan %.1fs (%.1fs waiting, %.1fs running, %d steps; %d retried, %d speculative wins)</p>\n",
			esc(j.Name), j.Path.MakespanSec, j.Path.WaitSec, j.Path.RunSec,
			j.Path.Steps, j.Path.Retried, j.Path.SpeculativeWins)
		fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n", w, barH+8, w, barH+8)
		fmt.Fprintf(b, "<text x=\"4\" y=\"%.0f\" font-size=\"11\">%s</text>\n", barH-7, esc(j.Name))
		xx := labelW
		for _, p := range j.Path.Phases {
			seg := (w - labelW - 10) * p.Sec / mk
			if seg < 0 {
				seg = 0
			}
			fmt.Fprintf(b, "<rect x=\"%.1f\" y=\"4\" width=\"%.1f\" height=\"%.0f\" fill=\"%s\" fill-opacity=\"0.8\"><title>%s: %.1fs (%.0f%%)</title></rect>\n",
				xx, seg, barH-8, color(p.Kind), esc(p.Kind), p.Sec, p.Sec/mk*100)
			xx += seg
		}
		b.WriteString("</svg>\n")
	}
}

// perfSection renders the performance-attribution snapshot: the
// algorithmic cost counters (exact event tallies, grouped by subsystem)
// and the hierarchical span tree with hit counts. Span wall-clock times
// are omitted on purpose — see the Data.Perf doc.
func perfSection(b *bytes.Buffer, d Data) {
	b.WriteString("<h2>Performance attribution</h2>\n")
	if d.Perf == nil {
		b.WriteString("<p class=\"dim\">no performance attribution recorded for this run</p>\n")
		return
	}
	names := make([]string, 0, len(d.Perf.Counters))
	for name := range d.Perf.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	b.WriteString("<table><thead><tr><th>cost counter</th><th class=\"num\">value</th></tr></thead><tbody>\n")
	for _, name := range names {
		fmt.Fprintf(b, "<tr><td class=\"mono\">%s</td><td class=\"num\">%d</td></tr>\n", esc(name), d.Perf.Counters[name])
	}
	b.WriteString("</tbody></table>\n")
	if len(d.Perf.Spans) == 0 {
		b.WriteString("<p class=\"dim\">no wall-time spans recorded</p>\n")
		return
	}
	b.WriteString("<p class=\"dim\">span hit counts; wall-clock times are excluded to keep the report byte-deterministic (run with -sweep scale or -metrics for timings)</p>\n")
	b.WriteString("<table><thead><tr><th>span</th><th class=\"num\">entries</th></tr></thead><tbody>\n")
	var walk func(spans []perfstat.SpanSnapshot, depth int)
	walk = func(spans []perfstat.SpanSnapshot, depth int) {
		for _, s := range spans {
			fmt.Fprintf(b, "<tr><td class=\"mono\">%s%s</td><td class=\"num\">%d</td></tr>\n",
				strings.Repeat("&nbsp;&nbsp;", depth), esc(s.Name), s.Count)
			walk(s.Children, depth+1)
		}
	}
	walk(d.Perf.Spans, 0)
	b.WriteString("</tbody></table>\n")
}

// auditTable renders the decision log with a client-side substring
// filter (type a job, PM or subsystem name to narrow the rows).
func auditTable(b *bytes.Buffer, d Data) {
	b.WriteString("<h2>Scheduler decision audit log</h2>\n")
	if len(d.Audit) == 0 {
		b.WriteString("<p class=\"dim\">no audit records for this run</p>\n")
		return
	}
	if d.AuditDropped > 0 {
		fmt.Fprintf(b, "<p class=\"dim\">ring buffer dropped the oldest %d records before these</p>\n", d.AuditDropped)
	}
	rows := d.Audit
	if len(rows) > maxAuditRows {
		fmt.Fprintf(b, "<p class=\"dim\">showing the first %d of %d retained records</p>\n", maxAuditRows, len(rows))
		rows = rows[:maxAuditRows]
	}
	b.WriteString("<input id=\"af\" type=\"text\" placeholder=\"filter rows — e.g. a job name, pm-3, drm, speculate\" oninput=\"aflt(this.value)\">\n")
	b.WriteString("<table id=\"at\"><thead><tr><th class=\"num\">seq</th><th class=\"num\">t (s)</th><th>subsystem</th><th>action</th><th>subject</th><th>decision</th><th>reason &amp; candidates</th></tr></thead><tbody>\n")
	for _, r := range rows {
		reason := esc(r.Reason)
		if len(r.Candidates) > 0 {
			var cs []string
			for _, c := range r.Candidates {
				mark := ""
				if c.Chosen {
					mark = " ✓"
				}
				cs = append(cs, fmt.Sprintf("%s %.2f%s", esc(c.Name), c.Score, mark))
			}
			reason += " <span class=\"dim mono\">[" + strings.Join(cs, " · ") + "]</span>"
		}
		fmt.Fprintf(b, "<tr><td class=\"num\">%d</td><td class=\"num\">%.2f</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			r.Seq, r.At.Seconds(), esc(r.Subsystem), esc(r.Action), esc(r.Subject), esc(r.Decision), reason)
	}
	b.WriteString("</tbody></table>\n")
	b.WriteString(`<script>function aflt(q){q=q.toLowerCase();for(const tr of document.querySelectorAll('#at tbody tr')){tr.style.display=tr.textContent.toLowerCase().includes(q)?'':'none';}}</script>
`)
}

// metricsTables renders the registry snapshot: counters, gauges and
// histogram quantiles in sorted order.
// faultSection breaks injected faults down by kind (the
// fault.injections_by_kind.* counters), alongside the retarget count —
// rate-drawn injections whose victim was already dead and that were
// redirected to the next live target. Runs without a fault injector (no
// matching counters) render no section at all.
func faultSection(b *bytes.Buffer, d Data) {
	const prefix = "fault.injections_by_kind."
	kinds := make([]string, 0, 4)
	for k := range d.Metrics.Counters {
		if strings.HasPrefix(k, prefix) && d.Metrics.Counters[k] > 0 {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 {
		return
	}
	sort.Strings(kinds)
	b.WriteString("<h2>Fault injections</h2>\n")
	total := 0.0
	for _, k := range kinds {
		total += d.Metrics.Counters[k]
	}
	retargets := d.Metrics.Counters["fault.retargets"]
	fmt.Fprintf(b, "<p class=\"dim\">%g injection(s) total · %g rate-drawn draw(s) retargeted past dead victims</p>\n",
		total, retargets)
	b.WriteString("<table><thead><tr><th>kind</th><th class=\"num\">injections</th></tr></thead><tbody>\n")
	for _, k := range kinds {
		fmt.Fprintf(b, "<tr><td class=\"mono\">%s</td><td class=\"num\">%g</td></tr>\n",
			esc(strings.TrimPrefix(k, prefix)), d.Metrics.Counters[k])
	}
	b.WriteString("</tbody></table>\n")
}

func metricsTables(b *bytes.Buffer, d Data) {
	b.WriteString("<h2>Metrics registry snapshot</h2>\n")
	s := d.Metrics
	if len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0 {
		b.WriteString("<p class=\"dim\">no metrics recorded for this run</p>\n")
		return
	}
	sortedKeys := func(n int, each func(func(string))) []string {
		keys := make([]string, 0, n)
		each(func(k string) { keys = append(keys, k) })
		sort.Strings(keys)
		return keys
	}
	if len(s.Counters) > 0 || len(s.Gauges) > 0 {
		b.WriteString("<table><thead><tr><th>metric</th><th class=\"num\">value</th></tr></thead><tbody>\n")
		for _, k := range sortedKeys(len(s.Counters), func(add func(string)) {
			for k := range s.Counters {
				add(k)
			}
		}) {
			fmt.Fprintf(b, "<tr><td class=\"mono\">%s</td><td class=\"num\">%g</td></tr>\n", esc(k), s.Counters[k])
		}
		for _, k := range sortedKeys(len(s.Gauges), func(add func(string)) {
			for k := range s.Gauges {
				add(k)
			}
		}) {
			fmt.Fprintf(b, "<tr><td class=\"mono\">%s <span class=\"dim\">(gauge)</span></td><td class=\"num\">%g</td></tr>\n", esc(k), s.Gauges[k])
		}
		b.WriteString("</tbody></table>\n")
	}
	if len(s.Histograms) > 0 {
		b.WriteString("<table><thead><tr><th>histogram</th><th class=\"num\">count</th><th class=\"num\">mean</th><th class=\"num\">p50</th><th class=\"num\">p95</th><th class=\"num\">p99</th><th class=\"num\">max</th></tr></thead><tbody>\n")
		for _, k := range sortedKeys(len(s.Histograms), func(add func(string)) {
			for k := range s.Histograms {
				add(k)
			}
		}) {
			h := s.Histograms[k]
			fmt.Fprintf(b, "<tr><td class=\"mono\">%s</td><td class=\"num\">%d</td><td class=\"num\">%.3g</td><td class=\"num\">%.3g</td><td class=\"num\">%.3g</td><td class=\"num\">%.3g</td><td class=\"num\">%.3g</td></tr>\n",
				esc(k), h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
		}
		b.WriteString("</tbody></table>\n")
	}
}

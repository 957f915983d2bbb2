// Package wcm is a Go implementation of the workload characterization model
// of Maxiaguine, Künzli and Thiele, "Workload Characterization Model for
// Tasks with Variable Execution Demand" (DATE 2004).
//
// The central abstraction is the workload curve pair (γᵘ, γˡ): guaranteed
// upper and lower bounds on the processor cycles consumed by any k
// consecutive activations of a task. Unlike a single WCET value, workload
// curves capture correlation between consecutive demands ("at most one
// expensive activation in any three"), which tightens schedulability tests
// and system-level performance bounds without giving up hard guarantees.
//
// The package re-exports the stable public API of the implementation
// packages:
//
//   - workload curves: Workload, FromDemandTrace, FromDemandTraces,
//     TraceAnalyzer, PollingTask (the paper's Example 1);
//   - event modelling: EventType, EventSequence, DemandTrace, TimedTrace
//     and deterministic generators;
//   - arrival/service curves and Network-Calculus bounds: Spans,
//     SpansFromTrace, BacklogEvents, MinFrequency (eq. 9),
//     MinFrequencyWCET (eq. 10), CheckServiceConstraint (eq. 8);
//   - rate-monotonic analysis: RMSTask, RMSTaskSet with the classical
//     Lehoczky test (eq. 3) and the workload-curve test (eq. 4);
//   - the MPEG-2 case study: CaseStudyParams, AnalyzeCaseStudy,
//     SimulateCaseStudyBacklogs (Fig. 6, Fmin, Fig. 7);
//   - streaming: CurveStream (incremental sliding-window curve
//     maintenance) and WCMDServer, the HTTP service behind cmd/wcmd.
//
// See the runnable programs under examples/ for entry points, and DESIGN.md
// for the mapping between paper artifacts and modules.
package wcm

import (
	"wcm/internal/arrival"
	"wcm/internal/casestudy"
	"wcm/internal/chain"
	"wcm/internal/core"
	"wcm/internal/curve"
	"wcm/internal/dbf"
	"wcm/internal/events"
	"wcm/internal/mpeg2"
	"wcm/internal/netcalc"
	"wcm/internal/pipeline"
	"wcm/internal/power"
	"wcm/internal/pwl"
	"wcm/internal/rms"
	"wcm/internal/sched"
	"wcm/internal/server"
	"wcm/internal/service"
	"wcm/internal/shaper"
	"wcm/internal/stream"
	"wcm/internal/wirefmt"
)

// ---- Curves -------------------------------------------------------------

// Curve is an integer-valued monotone curve over the activation-count
// domain k ≥ 0 (workload curves, demand-bound functions).
type Curve = curve.Curve

// PWLCurve is a piecewise-linear curve over the time-interval domain
// (arrival and service curves).
type PWLCurve = pwl.Curve

// PWLPoint is a breakpoint of a PWLCurve.
type PWLPoint = pwl.Point

// NewCurve builds a k-domain curve from explicit values and an optional
// exact periodic tail; see curve.New.
func NewCurve(vals []int64, period int, delta int64) (Curve, error) {
	return curve.New(vals, period, delta)
}

// LinearCurve returns γ(k) = rate·k, the single-value WCET/BCET abstraction.
func LinearCurve(rate int64) (Curve, error) { return curve.Linear(rate) }

// ---- Events and traces --------------------------------------------------

// EventType is a typed trigger with a [BCET, WCET] execution interval.
type EventType = events.Type

// EventTypeSet is the finite alphabet of event types.
type EventTypeSet = events.TypeSet

// EventSequence is an ordered sequence of typed events (paper Fig. 1).
type EventSequence = events.Sequence

// DemandTrace is a per-activation cycle-demand trace.
type DemandTrace = events.DemandTrace

// TimedTrace is a sorted sequence of event timestamps in nanoseconds.
type TimedTrace = events.TimedTrace

// NewEventTypeSet builds a validated event-type alphabet.
func NewEventTypeSet(types ...EventType) (*EventTypeSet, error) {
	return events.NewTypeSet(types...)
}

// NewEventSequence resolves named events against a type set.
func NewEventSequence(set *EventTypeSet, names ...string) (*EventSequence, error) {
	return events.NewSequence(set, names...)
}

// GeneratePollingDemands produces a deterministic demand trace of the
// paper's Example 1 polling task (see PollingTask for the parameters).
func GeneratePollingDemands(pollPeriod, thetaMin, thetaMax, ep, ec int64, n int, seed uint64) (DemandTrace, error) {
	return events.PollingDemands(pollPeriod, thetaMin, thetaMax, ep, ec, n, seed)
}

// GenerateSporadic produces a deterministic timed trace with inter-arrival
// times uniform in [minGap, maxGap].
func GenerateSporadic(t0, minGap, maxGap int64, n int, seed uint64) (TimedTrace, error) {
	return events.Sporadic(t0, minGap, maxGap, n, seed)
}

// DemandMode is one mode of a multi-mode demand generator.
type DemandMode = events.Mode

// GenerateModalDemands produces a deterministic demand trace cycling
// through the given modes (the SPI-style multi-mode processes the paper
// builds on).
func GenerateModalDemands(modes []DemandMode, n int, seed uint64) (DemandTrace, error) {
	return events.ModalDemands(modes, n, seed)
}

// ---- Workload curves (the paper's contribution) -------------------------

// Workload is a task's (γᵘ, γˡ) characterization.
type Workload = core.Workload

// TraceAnalyzer extracts workload curves from demand traces with O(n)
// single-k queries.
type TraceAnalyzer = core.Analyzer

// PollingTask is the paper's Example 1 (Sec. 2.2 / Fig. 2).
type PollingTask = core.PollingTask

// TypeCountBound is a per-type occurrence constraint for analytic upper
// workload curves.
type TypeCountBound = core.TypeCountBound

// NewTraceAnalyzer builds an analyzer over a demand trace.
func NewTraceAnalyzer(d DemandTrace) (*TraceAnalyzer, error) { return core.NewAnalyzer(d) }

// FromDemandTrace extracts (γᵘ, γˡ) from one demand trace up to window maxK.
func FromDemandTrace(d DemandTrace, maxK int) (Workload, error) { return core.FromTrace(d, maxK) }

// FromDemandTraces extracts the envelope characterization over several
// traces (max of uppers, min of lowers), as in the paper's case study.
func FromDemandTraces(traces []DemandTrace, maxK int) (Workload, error) {
	return core.FromTraces(traces, maxK)
}

// FromEventSequence extracts (γᵘ, γˡ) from a typed event sequence.
func FromEventSequence(s *EventSequence, maxK int) (Workload, error) {
	return core.FromSequence(s, maxK)
}

// UpperFromTypeCounts derives an analytic γᵘ from per-type count bounds.
func UpperFromTypeCounts(bounds []TypeCountBound, defaultWCET int64, maxK int) (Curve, error) {
	return core.UpperFromTypeCounts(bounds, defaultWCET, maxK)
}

// ---- Arrival and service curves -----------------------------------------

// Spans is the minimal-span table d(k) of an event trace; its pseudo-
// inverse is the arrival curve ᾱ(Δ).
type Spans = arrival.Spans

// SpansFromTrace extracts d(k) = min_j(t[j+k−1] − t[j]) for k = 1..maxK.
func SpansFromTrace(tt TimedTrace, maxK int) (Spans, error) { return arrival.FromTrace(tt, maxK) }

// ExtractSpans extracts both span tables — minimal d(k) and maximal D(k) —
// in one fused pass of the shared extraction kernel.
func ExtractSpans(tt TimedTrace, maxK int) (Spans, MaxSpans, error) {
	return arrival.ExtractSpans(tt, maxK)
}

// MergeSpans combines span tables from several traces (per-k minimum).
func MergeSpans(tables ...Spans) (Spans, error) { return arrival.Merge(tables...) }

// PeriodicSpans returns the exact span table of a periodic stream.
func PeriodicSpans(period int64, maxK int) (Spans, error) { return arrival.Periodic(period, maxK) }

// FullService returns β(Δ) = F·Δ for a fully available processor.
func FullService(freqHz float64) (PWLCurve, error) { return service.Full(freqHz) }

// RateLatencyService returns β(Δ) = max(0, rate·(Δ − latency)).
func RateLatencyService(freqHz float64, latencyNs int64) (PWLCurve, error) {
	return service.RateLatency(freqHz, latencyNs)
}

// ---- Network-Calculus results (paper Sec. 3.2) ---------------------------

// MinFrequencyResult reports a minimum-frequency computation.
type MinFrequencyResult = netcalc.MinFrequencyResult

// BacklogEvents bounds the FIFO backlog in events (eq. 7).
func BacklogEvents(spans Spans, beta PWLCurve, gammaU Curve) (int, error) {
	return netcalc.BacklogEvents(spans, beta, gammaU)
}

// CheckServiceConstraint verifies the buffer-overflow-free condition
// β(Δ) ≥ γᵘ(ᾱ(Δ) − b) (eq. 8).
func CheckServiceConstraint(spans Spans, beta PWLCurve, gammaU Curve, b int) (bool, error) {
	return netcalc.CheckServiceConstraint(spans, beta, gammaU, b)
}

// MinFrequency computes Fᵞmin of eq. (9).
func MinFrequency(spans Spans, gammaU Curve, b int) (MinFrequencyResult, error) {
	return netcalc.MinFrequency(spans, gammaU, b)
}

// MinFrequencyWCET computes the conventional Fʷmin of eq. (10).
func MinFrequencyWCET(spans Spans, wcet int64, b int) (MinFrequencyResult, error) {
	return netcalc.MinFrequencyWCET(spans, wcet, b)
}

// DelayBound computes the Network-Calculus delay bound for the stream.
func DelayBound(spans Spans, beta PWLCurve, gammaU Curve, horizon int64) (int64, error) {
	return netcalc.DelayBound(spans, beta, gammaU, horizon)
}

// MinBuffer answers the dual design question of eq. (8): the smallest FIFO
// size that avoids overflow at a FIXED processor frequency.
func MinBuffer(spans Spans, beta PWLCurve, gammaU Curve) (int, error) {
	return netcalc.MinBuffer(spans, beta, gammaU)
}

// SharedPEReport bounds the low-priority stream of a shared processor.
type SharedPEReport = netcalc.SharedPEReport

// LeftoverService returns the service remaining for a low-priority task
// after a high-priority stream's worst-case preemption.
func LeftoverService(beta PWLCurve, hiSpans Spans, hiGamma Curve, horizon int64) (PWLCurve, error) {
	return netcalc.LeftoverService(beta, hiSpans, hiGamma, horizon)
}

// AnalyzeSharedPE bounds backlog and delay of the low-priority stream on a
// fixed-priority shared processor.
func AnalyzeSharedPE(beta PWLCurve, hiSpans Spans, hiGamma Curve, loSpans Spans, loGamma Curve, horizon int64) (SharedPEReport, error) {
	return netcalc.AnalyzeSharedPE(beta, hiSpans, hiGamma, loSpans, loGamma, horizon)
}

// ---- Rate-monotonic analysis (paper Sec. 3.1) ----------------------------

// RMSTask is a periodic task characterized by an upper workload curve.
type RMSTask = rms.Task

// RMSTaskSet is a rate-monotonic task set.
type RMSTaskSet = rms.TaskSet

// RMSComparison holds the classical (eq. 3) and workload-curve (eq. 4)
// schedulability factors side by side.
type RMSComparison = rms.Comparison

// NewRMSTaskSet validates and priority-orders a task set.
func NewRMSTaskSet(tasks ...RMSTask) (RMSTaskSet, error) { return rms.NewTaskSet(tasks...) }

// NewWCETTask builds a task with the single-value WCET characterization.
func NewWCETTask(name string, period, wcet int64) (RMSTask, error) {
	return rms.WCETTask(name, period, wcet)
}

// RMSUtilizationBound returns the Liu & Layland bound n(2^{1/n} − 1).
func RMSUtilizationBound(n int) float64 { return rms.UtilizationBound(n) }

// ---- Scheduler simulation ------------------------------------------------

// SchedTask is a periodic task for fixed-priority preemptive simulation.
type SchedTask = sched.Task

// SchedResult is the outcome of a scheduler simulation.
type SchedResult = sched.Result

// SimulateFixedPriority runs the preemptive fixed-priority simulation.
func SimulateFixedPriority(tasks []SchedTask, horizon int64) (SchedResult, error) {
	return sched.Simulate(tasks, horizon)
}

// ---- Streaming pipeline and MPEG-2 case study ----------------------------

// PipelineItem is one unit of work in the two-PE pipeline.
type PipelineItem = pipeline.Item

// PipelineConfig holds the two-PE architecture parameters.
type PipelineConfig = pipeline.Config

// PipelineStats is the outcome of a pipeline simulation.
type PipelineStats = pipeline.Stats

// RunPipeline simulates the CBR → PE1 → FIFO → PE2 architecture (Fig. 5).
func RunPipeline(items []PipelineItem, cfg PipelineConfig) (PipelineStats, error) {
	return pipeline.Run(items, cfg)
}

// MPEGClip is a synthetic video-clip profile.
type MPEGClip = mpeg2.Clip

// MPEGStreamConfig is the stream geometry (resolution, fps, bitrate, GOP).
type MPEGStreamConfig = mpeg2.StreamConfig

// MPEGClipLibrary returns the 14 synthetic clips of the case study.
func MPEGClipLibrary() []MPEGClip { return mpeg2.Library() }

// DefaultMPEGStream returns the paper's stream parameters (720×576, 25 fps,
// 9.78 Mbit/s, GOP 12/3) for the given clip length.
func DefaultMPEGStream(frames int) MPEGStreamConfig { return mpeg2.DefaultStream(frames) }

// CaseStudyParams configures the end-to-end MPEG-2 experiment.
type CaseStudyParams = casestudy.Params

// CaseStudyAnalysis is the merged analysis result (curves, Fᵞmin, Fʷmin).
type CaseStudyAnalysis = casestudy.Analysis

// CaseStudyBacklog is one bar of Fig. 7.
type CaseStudyBacklog = casestudy.BacklogResult

// DefaultCaseStudyParams returns the paper's setup for the given clip
// length in frames.
func DefaultCaseStudyParams(frames int) CaseStudyParams { return casestudy.DefaultParams(frames) }

// AnalyzeCaseStudy runs trace generation, curve extraction and the
// frequency computations of eq. (9)/(10).
func AnalyzeCaseStudy(p CaseStudyParams) (*CaseStudyAnalysis, error) { return casestudy.Analyze(p) }

// SimulateCaseStudyBacklogs reruns the clips at the given PE2 frequency and
// reports normalized maximum FIFO backlogs (Fig. 7).
func SimulateCaseStudyBacklogs(p CaseStudyParams, a *CaseStudyAnalysis, f2Hz float64) ([]CaseStudyBacklog, error) {
	return casestudy.SimulateBacklogs(p, a.Traces, f2Hz)
}

// CaseStudyBufferPoint is one row of the buffer-size ablation.
type CaseStudyBufferPoint = casestudy.BufferPoint

// CaseStudyWindowPoint is one row of the analysis-window ablation.
type CaseStudyWindowPoint = casestudy.WindowPoint

// CaseStudyBufferSweep recomputes the minimum frequencies for several FIFO
// sizes from one analysis.
func CaseStudyBufferSweep(a *CaseStudyAnalysis, buffers []int) ([]CaseStudyBufferPoint, error) {
	return casestudy.BufferSweep(a, buffers)
}

// CaseStudyWindowSweep quantifies the cost of shorter trace-analysis
// windows (curves conservatively extended by their additivity properties).
func CaseStudyWindowSweep(a *CaseStudyAnalysis, windowsFrames []int) ([]CaseStudyWindowPoint, error) {
	return casestudy.WindowSweep(a, windowsFrames)
}

// ---- Extensions: EDF demand-bound functions and greedy shaping ----------

// DBFTask is a sporadic task with constrained deadline for EDF feasibility
// analysis; its demand goes through an upper workload curve.
type DBFTask = dbf.Task

// DBFTaskSet is a set of sporadic tasks for the processor-demand criterion.
type DBFTaskSet = dbf.TaskSet

// DBFVerdict is the outcome of an EDF feasibility check.
type DBFVerdict = dbf.Verdict

// NewDBFTaskSet validates a sporadic task set.
func NewDBFTaskSet(tasks ...DBFTask) (DBFTaskSet, error) { return dbf.NewTaskSet(tasks...) }

// NewDBFWCETTask builds a sporadic task with the single-WCET demand model.
func NewDBFWCETTask(name string, period, deadline, wcet int64) (DBFTask, error) {
	return dbf.WCETTask(name, period, deadline, wcet)
}

// SimulateEDF runs a preemptive earliest-deadline-first simulation.
func SimulateEDF(tasks []SchedTask, horizon int64) (SchedResult, error) {
	return sched.SimulateEDF(tasks, horizon)
}

// ShapeTrace passes a timed trace through a greedy shaper so its minimal
// spans dominate the shaping table sigma.
func ShapeTrace(tt TimedTrace, sigma Spans) (TimedTrace, error) { return shaper.Shape(tt, sigma) }

// ShaperMaxDelay returns the largest per-event delay a shaping pass
// introduced.
func ShaperMaxDelay(in, out TimedTrace) (int64, error) { return shaper.MaxDelay(in, out) }

// ---- Modal tasks and approximate extraction ------------------------------

// ModalMode is one operating mode of an SPI-style multi-mode process.
type ModalMode = core.ModalMode

// ModalTask characterizes a task as a walk over a mode graph; its Workload
// method computes exact workload curves by dynamic programming.
type ModalTask = core.ModalTask

// ApproxWorkload extracts conservatively rounded workload curves in
// O(n·K/stride) instead of O(n·K); all downstream bounds stay sound.
func ApproxWorkload(a *TraceAnalyzer, maxK, stride int) (Workload, error) {
	return core.ApproxWorkload(a, maxK, stride)
}

// WorstTrace synthesizes the greedy-worst demand sequence consistent with
// an upper workload curve (adversarial input for simulations).
func WorstTrace(gammaU Curve, n int) (DemandTrace, error) { return core.WorstTrace(gammaU, n) }

// WorkloadViolation reports where a trace breaks a characterization.
type WorkloadViolation = core.Violation

// ---- Lower arrival curves (guaranteed throughput) -------------------------

// MaxSpans is the maximal-span table D(k); its pseudo-inverse is the lower
// arrival curve ᾱˡ(Δ) — events guaranteed in any window.
type MaxSpans = arrival.MaxSpans

// MaxSpansFromTrace extracts D(k) = max_j(t[j+k−1] − t[j]).
func MaxSpansFromTrace(tt TimedTrace, maxK int) (MaxSpans, error) {
	return arrival.MaxSpansFromTrace(tt, maxK)
}

// MergeMaxSpans combines maximal-span tables (per-k maximum).
func MergeMaxSpans(tables ...MaxSpans) (MaxSpans, error) { return arrival.MergeMax(tables...) }

// ---- Power -----------------------------------------------------------------

// PowerModel selects how supply voltage tracks frequency.
type PowerModel = power.Model

// Power model constants.
const (
	PowerFrequencyOnly = power.FrequencyOnly
	PowerVoltageScaled = power.VoltageScaled
)

// PowerSavings summarizes the power/energy effect of the frequency saving.
type PowerSavings = power.Savings

// ComparePower translates a frequency reduction into dynamic-power and
// energy ratios under the chosen model.
func ComparePower(fGammaHz, fWCETHz float64, m PowerModel) (PowerSavings, error) {
	return power.Compare(fGammaHz, fWCETHz, m)
}

// ---- Multi-stage chains ---------------------------------------------------

// ChainItem is one unit of work in an N-stage pipeline.
type ChainItem = pipeline.ChainItem

// ChainStageConfig is one processing element of a simulated chain.
type ChainStageConfig = pipeline.StageConfig

// ChainConfig is the N-stage architecture for simulation.
type ChainConfig = pipeline.ChainConfig

// ChainStats is the outcome of a chain simulation.
type ChainStats = pipeline.ChainStats

// RunChain simulates an N-stage pipeline (generalizing RunPipeline).
func RunChain(items []ChainItem, cfg ChainConfig) (ChainStats, error) {
	return pipeline.RunChain(items, cfg)
}

// ChainStage is one processing element for compositional analysis.
type ChainStage = chain.Stage

// ChainReport is the per-stage analysis outcome.
type ChainReport = chain.Report

// AnalyzeChain derives per-stage delay/backlog bounds and propagates sound
// arrival bounds through a multi-PE chain.
func AnalyzeChain(in Spans, stages []ChainStage, horizon int64) ([]ChainReport, error) {
	return chain.Analyze(in, stages, horizon)
}

// ChainEndToEndDelay sums the per-stage delay bounds of a chain analysis.
func ChainEndToEndDelay(reports []ChainReport) int64 { return chain.EndToEndDelay(reports) }

// ChainEndToEndDelayPBOO computes the tandem-service ("pay bursts only
// once") end-to-end delay bound; see chain.EndToEndDelayPBOO for the
// grid-resolution caveat.
func ChainEndToEndDelayPBOO(in Spans, stages []ChainStage, horizon int64) (int64, error) {
	return chain.EndToEndDelayPBOO(in, stages, horizon)
}

// PEStreamSpec characterizes one stream competing for a shared processor.
type PEStreamSpec = netcalc.StreamSpec

// AnalyzePriorityPE bounds every stream of an N-priority shared processor.
func AnalyzePriorityPE(beta PWLCurve, streams []PEStreamSpec, horizon int64) ([]SharedPEReport, error) {
	return netcalc.AnalyzePriorityPE(beta, streams, horizon)
}

// WorkloadMonitor is the streaming admissibility checker for live demand
// sequences.
type WorkloadMonitor = core.Monitor

// NewWorkloadMonitor builds a monitor over the characterization with the
// given window (capped to the curves' domain).
func NewWorkloadMonitor(w Workload, window int) (*WorkloadMonitor, error) {
	return core.NewMonitor(w, window)
}

// PJDModel holds fitted periodic-with-jitter event-model parameters.
type PJDModel = arrival.PJD

// FitPJDModel fits the tightest periodic-with-jitter model dominating an
// observed span table.
func FitPJDModel(s Spans) (PJDModel, error) { return arrival.FitPJD(s) }

// ConvolveService min-plus convolves two service curves (tandem
// composition, "pay bursts only once").
func ConvolveService(a, b PWLCurve) PWLCurve { return pwl.Convolve(a, b) }

// ---- Streaming curve maintenance and the wcmd service ---------------------

// CurveStream maintains (γᵘ, γˡ) and the span tables d(k)/D(k)
// incrementally over a sliding window of demand samples: ingest appends
// in O(batch), and the next read catches the curves up instead of running
// a full re-extraction, with a periodic batch re-extraction as correctness
// anchor. Safe for concurrent use.
type CurveStream = stream.Stream

// CurveStreamConfig parameterizes a CurveStream (window, curve domain,
// anchor cadence).
type CurveStreamConfig = stream.Config

// CurveStreamSnapshot is a consistent point-in-time view of a stream's
// curves and span tables.
type CurveStreamSnapshot = stream.Snapshot

// CurveStreamStats is a stream's observability surface (totals, drift,
// contract violations).
type CurveStreamStats = stream.Stats

// StreamIngestResult reports one accepted ingest batch.
type StreamIngestResult = stream.IngestResult

// FrequencyComparison holds eq. (9) and eq. (10) minimum frequencies side
// by side with the relative saving.
type FrequencyComparison = netcalc.FrequencyComparison

// NewCurveStream builds an empty incremental curve maintainer.
func NewCurveStream(cfg CurveStreamConfig) (*CurveStream, error) { return stream.New(cfg) }

// CompareFrequencies computes eq. (9) and eq. (10) together.
func CompareFrequencies(spans Spans, gammaU Curve, b int) (FrequencyComparison, error) {
	return netcalc.CompareFrequencies(spans, gammaU, b)
}

// WCMDServer is the HTTP/JSON characterization service served by cmd/wcmd:
// sharded CurveStream registry with ingest, curve, service-check,
// min-frequency, contract/verdict and metrics endpoints.
type WCMDServer = server.Server

// WCMDServerConfig parameterizes a WCMDServer.
type WCMDServerConfig = server.Config

// NewWCMDServer builds the service; mount its Handler on any http.Server.
func NewWCMDServer(cfg WCMDServerConfig) (*WCMDServer, error) { return server.New(cfg) }

// BinaryIngestContentType is the Content-Type selecting the columnar binary
// ingest encoding on POST /v1/streams/{id}/ingest (see DESIGN.md §9).
const BinaryIngestContentType = server.ContentTypeBinary

// AppendBinaryIngestBatch encodes one ingest batch in the binary wire format
// — uint32 LE sample count, then the timestamp column, then the demand
// column, both little-endian int64 — appending to dst and returning the
// extended slice. Panics if the slices differ in length or are empty, like
// append-style encoders throughout the stdlib.
func AppendBinaryIngestBatch(dst []byte, t, demand []int64) []byte {
	return server.AppendBinaryBatch(dst, t, demand)
}

// BinaryQueryContentType is the Accept / Content-Type value selecting the
// columnar binary query response encoding on /curves, /check and /minfreq
// (see DESIGN.md §14).
const BinaryQueryContentType = server.ContentTypeQueryBinary

// Decoded forms of the binary query answers, and their decoders. One answer
// has exactly one encoding; the decoders reject any damaged or trailing
// bytes. Errors never travel in this format — a non-200 response is always
// the JSON error object.
type (
	BinaryCurves  = wirefmt.Curves
	BinaryCheck   = wirefmt.Check
	BinaryMinFreq = wirefmt.MinFreq
)

// DecodeBinaryCurves decodes a kind-1 (GET /curves) binary answer.
func DecodeBinaryCurves(b []byte) (BinaryCurves, error) { return wirefmt.DecodeCurves(b) }

// DecodeBinaryCheck decodes a kind-2 (POST /check) binary answer.
func DecodeBinaryCheck(b []byte) (BinaryCheck, error) { return wirefmt.DecodeCheck(b) }

// DecodeBinaryMinFreq decodes a kind-3 (GET /minfreq) binary answer.
func DecodeBinaryMinFreq(b []byte) (BinaryMinFreq, error) { return wirefmt.DecodeMinFreq(b) }

// DeconvolveArrival computes the exact output arrival curve a ⊘ b of a
// flow with arrival a served by b, over u ∈ [0, uMax].
func DeconvolveArrival(a, b PWLCurve, uMax int64) (PWLCurve, error) {
	return pwl.Deconvolve(a, b, uMax)
}

/**
 * @file
 * Shared plumbing of the bsyn benchmark: run options, the result every
 * workload fills (metrics, report-only figures, correctness
 * bookkeeping), output digests, the machine stamp and small timing
 * helpers.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "gen/fidelity.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seed whose output digests are pinned in digests.json. */
constexpr uint64_t kDefaultSeed = 1;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 20.0;
    bool trace = false;
    std::string outDir = ".bench_build/perfbench-out";
    std::string digestsPath = "perfbench/digests.json";
    std::string gitHead = "unknown";
    std::string sourceDigest = "unknown";
};

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);
/** Return freed heap memory to the kernel, so a round's peak resident
 *  set does not depend on what earlier rounds left cached. */
void releaseFreeMemory();

/** Reset the process's peak resident set to its current one, so the
 *  next peakRssMb() covers only what runs in between. */
void resetPeakRss();

/** Peak resident set of this process since the last resetPeakRss()
 *  (or since it started, where the kernel cannot reset it), in MiB. */
double peakRssMb();

/** SHA-256 of @p text as 64 hex characters. */
std::string sha256(const std::string &text);

/** One clone the pipeline produced: what the output digest covers. */
struct CloneOutput
{
    std::string name;        ///< workload instance name
    std::string profileJson; ///< StatisticalProfile::serialize()
    std::string cloneSource; ///< SyntheticBenchmark::cSource
};

/** SHA-256 over every (name, profile JSON, clone source), in order. */
std::string outputsDigest(const std::vector<CloneOutput> &outputs);

/**
 * Correctness bookkeeping: operations attempted, operations failed and
 * why. A digest mismatch counts as one failed operation.
 */
class Outcome
{
  public:
    void attempt(uint64_t n = 1) { attempted_ += n; }
    void fail(const std::string &why);

    /** Flag a mismatch unless @p actual equals @p expected.
     *  @return whether they matched. */
    bool expectEqual(const std::string &what, const std::string &expected,
                     const std::string &actual);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/** A metric as printed: value and unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports. */
struct Result
{
    Outcome outcome;

    /** The metrics of the final JSON line (end-to-end without tracing,
     *  per-layer with it). */
    std::map<std::string, Metric> metrics;

    /** Figures printed by name in the report but not in the JSON line:
     *  metrics of one workload only, and values that can be missing. */
    std::vector<std::pair<std::string, std::string>> extras;

    /** Digests of this run's outputs, by name. */
    std::map<std::string, std::string> digests;

    /** Chrome trace-event JSON of the traced pass ("" untraced). */
    std::string traceJson;

    void set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
    void extra(const std::string &name, const std::string &text)
    {
        extras.emplace_back(name, text);
    }
};

/**
 * Pinned digest @p key of workload @p workload, or "" when @p opts does
 * not run on the pinned seed (or nothing is pinned under that key).
 */
std::string pinnedDigest(const Options &opts, const std::string &workload,
                         const std::string &key);

/** Compare @p actual with its pinned value (when there is one). */
void checkPinned(const Options &opts, Result &res, const std::string &key,
                 const std::string &actual);

/**
 * Median wall time of @p n runs of @p setup, in seconds. Each run
 * replaces what the previous one built, so the last stays in use.
 */
double medianSetupSeconds(int n, const std::function<void()> &setup);

/** A scratch directory under the run's output dir, removed on
 *  destruction. */
class ScratchDir
{
  public:
    ScratchDir(const Options &opts, const std::string &tag);
    ~ScratchDir();
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Clone-accuracy figures of one fidelity report. */
struct FidelitySummary
{
    double meanErr = 0.0;  ///< mean of per-instance meanError
    double cpiErr = 0.0;   ///< summary timing.cpi mean
    double phaseErr = 0.0; ///< summary phaseWorstMix mean
    double profileS = 0.0, cloneProfileS = 0.0, synthS = 0.0,
           timingS = 0.0; ///< summed InstanceFidelity seconds
    std::string digest;    ///< SHA-256 of resultsJson()
};

/** Summarize @p rep; every !ok instance is counted as a failure. */
FidelitySummary summarizeFidelity(const bsyn::gen::FidelityReport &rep,
                                  Outcome &outcome);

/** Score the clones of @p corpus with gen::scoreFidelity (timing at
 *  -O2) on a fresh Session over @p cacheDir ("" for none), with the
 *  run's synthesis options — the clones the workload itself made. */
FidelitySummary scoreClones(const Options &opts,
                            const std::vector<bsyn::workloads::Workload> &corpus,
                            const std::string &cacheDir, Outcome &outcome);

/** Put the fidelity error metrics of @p f into @p res (the CPI error as
 *  a printed figure only). */
void setFidelityMetrics(Result &res, const FidelitySummary &f);

/** Put the fidelity.* per-layer seconds of @p f into @p res. */
void setFidelityLayerMetrics(Result &res, const FidelitySummary &f);

/** The pipeline's default synthesis options with the run's seed. */
bsyn::synth::SynthesisOptions synthesisOptions(const Options &opts);

/** Pool threads of every Session: one per hardware thread. */
unsigned poolThreads();

/** Machine stamp: nproc, CPU model, compiler, build type, git HEAD and
 *  source digest, as one JSON object. */
std::string machineStamp(const Options &opts);

/** Whether this binary was built as a Release build. */
bool releaseBuild();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH

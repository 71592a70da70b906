/**
 * @file
 * The workload profiler (the paper's Pin role, §III-A): executes a
 * -O0-shaped program under instrumentation and produces the complete
 * StatisticalProfile — SFGL with loop annotations, branch taken and
 * transition rates, memory hit/miss classes, and the instruction mix.
 * The fused engine is the fast path; the observer engine on the
 * reference interpreter is the golden path. Phase-detection and
 * branch-classification thresholds are constants of this module.
 */

#ifndef BSYN_PROFILE_PROFILER_HH
#define BSYN_PROFILE_PROFILER_HH

#include <string>

#include "ir/module.hh"
#include "isa/machine_program.hh"
#include "profile/statistical_profile.hh"
#include "sim/cache.hh"
#include "sim/interpreter.hh"

namespace bsyn::profile
{

/**
 * Which collection machinery drives the dynamic half of a profile.
 * Both produce byte-identical profiles (asserted by
 * tests/test_differential_profile.cc); the fused mode is ~an order of
 * magnitude faster and is the default everywhere.
 */
enum class ProfileEngine : uint8_t
{
    /** The instrumented dispatch mode of the predecoded engine:
     *  dense per-PC counters, no per-instruction virtual calls; the
     *  SFGL annotations are assembled from the counters plus the
     *  program's static structure. */
    Fused,
    /** The original ExecObserver-based profiler on the reference
     *  decode-per-step interpreter (sim::executeReference) — the fully
     *  independent golden path the differential suite compares
     *  against. */
    Observer,
};

/** Profiling parameters. */
struct ProfileOptions
{
    /** Cache simulated during profiling for hit/miss classification. */
    sim::CacheConfig profilingCache{8 * 1024, 32, 4};

    /** Interpreter limits. */
    sim::ExecLimits limits;

    /** Collection machinery. */
    ProfileEngine engine = ProfileEngine::Fused;

    /** Slice checkpoint interval in retired instructions; the interval
     *  doubles whenever maxSliceCheckpoints checkpoints accumulate
     *  (sim::SliceOptions), so the effective slice length is derived
     *  from the run's total instruction count — no wall-clock input.
     *  0 disables slicing: the profile is single-phase. */
    uint64_t sliceBaseLength = 4096;

    /** Checkpoint budget before adjacent slice pairs coalesce. */
    uint32_t maxSliceCheckpoints = 64;
};

/**
 * Every field of @p opts that shapes the profile's bytes, rendered as a
 * stable string for cache keys: the profiling cache geometry and the
 * slicing parameters. engine and limits stay out — both engines yield
 * byte-identical profiles (tests/test_differential_profile.cc), and a
 * run that hits the instruction limit produces no profile at all. A
 * field added to ProfileOptions joins here unless the same holds for it.
 */
std::string fingerprint(const ProfileOptions &opts);

/**
 * Profile a workload.
 *
 * @param mod the IR module compiled at the low optimization level
 *            (provides the CFG for loop detection).
 * @param prog the lowered program actually executed; must carry
 *             provenance to @p mod (same module, any target).
 * @param opts profiling parameters.
 * @return the complete statistical profile.
 */
StatisticalProfile profileWorkload(const ir::Module &mod,
                                   const isa::MachineProgram &prog,
                                   const ProfileOptions &opts = {});

/**
 * Convenience wrapper used throughout the evaluation: lower @p mod for
 * the profiling target (x86 with fusion disabled, so instruction
 * sequences have the clean load/op/store shape pattern recognition
 * expects) and profile it.
 */
StatisticalProfile profileModule(const ir::Module &mod,
                                 const ProfileOptions &opts = {});

} // namespace bsyn::profile

#endif // BSYN_PROFILE_PROFILER_HH

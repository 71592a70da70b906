/**
 * @file
 * Trace-driven processor timing models: an out-of-order core (ROB,
 * width-limited dispatch, operand-ready scheduling, cache-miss and
 * branch-misprediction penalties) standing in for the paper's PTLSim
 * 2-wide out-of-order configuration, and an in-order (EPIC-like) variant
 * whose performance depends much more strongly on code quality — the
 * property that makes the paper's Itanium 2 respond to -O2/-O3.
 */

#ifndef BSYN_SIM_CORE_MODEL_HH
#define BSYN_SIM_CORE_MODEL_HH

#include <array>
#include <memory>

#include "sim/branch_predictor.hh"
#include "sim/cache.hh"
#include "sim/interpreter.hh"

namespace bsyn::sim
{

class DecodedProgram;

/** Microarchitecture parameters of a core. */
struct CoreConfig
{
    std::string name = "ooo2";
    int width = 2;          ///< dispatch/issue width
    int robSize = 32;       ///< reorder-buffer entries
    bool inOrder = false;   ///< true = EPIC-style in-order issue
    int mispredictPenalty = 10;

    CacheConfig l1d;        ///< level-1 data cache
    int l1HitLatency = 2;   ///< load-to-use latency on a hit
    int l1MissPenalty = 12; ///< additional cycles on an L1 miss (L2 hit)

    bool hasL2 = true;
    CacheConfig l2;         ///< unified second level
    int l2MissPenalty = 120; ///< additional cycles on an L2 miss

    std::string predictor = "tournament";
};

/**
 * Per-PC dynamic timing event counters, for differential comparison of
 * the reference and specialized timing engines at per-instruction
 * granularity (aggregate TimingStats could mask compensating errors;
 * per-PC attribution cannot). Filled only when a caller attaches one
 * via CoreModel::recordEvents / TimedCore::recordEvents.
 */
struct PerPcTimingEvents
{
    std::vector<uint64_t> l1Misses;
    std::vector<uint64_t> l2Misses;
    std::vector<uint64_t> mispredicts;

    void
    init(size_t n)
    {
        l1Misses.assign(n, 0);
        l2Misses.assign(n, 0);
        mispredicts.assign(n, 0);
    }

    bool
    operator==(const PerPcTimingEvents &o) const
    {
        return l1Misses == o.l1Misses && l2Misses == o.l2Misses &&
               mispredicts == o.mispredicts;
    }
};

/** Timing results. */
struct TimingStats
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    PredictorStats branch;
    CacheStats l1d;
    CacheStats l2;

    double
    cpi() const
    {
        return instructions ? double(cycles) / double(instructions) : 0.0;
    }
};

/** Static scheduling metadata of one PC (see prepareTimingInst). */
struct PreparedTimingInst
{
    isa::MClass cls = isa::MClass::IntAlu;
    int32_t dst = -1;
    int32_t srcs[4] = {-1, -1, -1, -1};
    int8_t numSrcs = 0;
    bool isBranch = false;
    bool isCallRet = false;
    uint32_t fusedLoadLatency = 0;
};

/**
 * Derive one PC's scheduling metadata from its MInst — the single
 * source of truth for every timing path (the reference CoreModel
 * derives it per retired instruction; TimedProgram folds it further,
 * once per PC, for the specialized engine).
 */
PreparedTimingInst prepareTimingInst(const isa::MInst &mi,
                                     const CoreConfig &cfg);

/**
 * Timing class of an instruction. Unlike MInst::cls() — which follows
 * Pin's memory-behaviour view for the instruction-mix statistics — the
 * scheduler needs the execution latency of the *operation*, with fused
 * memory operands accounted for separately.
 */
isa::MClass timingClass(const isa::MInst &mi);

/** Execution latency of a timing class under @p cfg. */
uint64_t timingBaseLatency(isa::MClass cls, const CoreConfig &cfg);

/**
 * The reference timing model. Consumes the dynamic stream as an
 * ExecObserver: attach to sim::execute() and call finish() afterwards.
 * The default timing path is the specialized engine in
 * sim/timed_core.hh; this class is the golden model it is
 * differentially tested against — select it at run time with
 * TimingEngine::Reference when debugging.
 */
class CoreModel : public ExecObserver
{
  public:
    explicit CoreModel(const CoreConfig &cfg);
    ~CoreModel() override;

    void onInstruction(int pc, const isa::MInst &mi) override;
    void onMemAccess(int pc, uint64_t addr, uint32_t size,
                     bool is_write, uint64_t raw_value = 0) override;
    void onBranch(int pc, bool taken) override;

    /** Attach per-PC event counters (differential testing). */
    void
    recordEvents(PerPcTimingEvents *e, size_t nPcs)
    {
        events = e;
        if (events)
            events->init(nPcs);
    }

    /** Finalize the last in-flight instruction and return the totals. */
    TimingStats finish();

    const CoreConfig &config() const { return cfg; }

  private:
    struct Pending
    {
        bool valid = false;
        int pc = 0;
        isa::MClass cls = isa::MClass::IntAlu;
        int dst = -1;
        int srcs[4] = {-1, -1, -1, -1};
        int numSrcs = 0;
        uint64_t extraLatency = 0;
        bool isBranch = false;
        bool taken = false;
        bool isCallRet = false;
        uint64_t loadAddr = 0;  ///< address read (store-forward check)
        bool hasLoad = false;
        uint64_t storeAddr = 0; ///< address written
        bool hasStore = false;
    };

    void retirePending();
    uint64_t baseLatency(isa::MClass cls) const;
    uint64_t &regReady(int r);

    CoreConfig cfg;
    Cache l1;
    Cache l2cache;
    std::unique_ptr<BranchPredictor> pred;

    Pending pending;
    std::vector<uint64_t> ready; ///< per-register ready cycle

    uint64_t dispatchCycle = 0;
    int dispatchSlots = 0;
    uint64_t lastIssue = 0;
    int issueSlots = 0;
    uint64_t lastRetire = 0;
    uint64_t fetchReady = 0;
    std::vector<uint64_t> robRing; ///< retire cycles of last robSize insts
    size_t robHead = 0;

    uint64_t instructions = 0;

    /**
     * Store-to-load forwarding: completion cycle of the last store per
     * (word-granular) address, so memory-carried dependence chains —
     * ubiquitous in -O0 code — are timed honestly. Direct-mapped and
     * tagged; collisions simply miss (no false dependences).
     */
    static constexpr size_t fwdSlots = 1u << 16;
    struct FwdEntry
    {
        uint64_t addr = ~0ull;
        uint64_t ready = 0;
    };
    std::array<FwdEntry, fwdSlots> storeReady{};

    PerPcTimingEvents *events = nullptr;
};

/** Which timing implementation simulateTiming runs. */
enum class TimingEngine : uint8_t
{
    Specialized, ///< per-PC specialized engine (sim/timed_core.hh)
    Reference,   ///< golden CoreModel path (debugging / differential)
};

class TimedProgram;

/** Convenience: execute @p prog under a core model; @return timing.
 *  Decodes once and runs the selected timing engine. */
TimingStats simulateTiming(const isa::MachineProgram &prog,
                           const CoreConfig &cfg,
                           const ExecLimits &limits = {},
                           TimingEngine engine = TimingEngine::Specialized);

/** Timed run over an existing decode — callers sweeping one program
 *  across several core configs (Fig 10) decode once and reuse it. */
TimingStats simulateTiming(const DecodedProgram &prog,
                           const CoreConfig &cfg,
                           const ExecLimits &limits = {},
                           TimingEngine engine = TimingEngine::Specialized);

/** Timed run over an existing decode *and* prepared metadata — the
 *  innermost sweep form: one TimedProgram serves every configuration
 *  that shares its latencies (asserted), so a cache-size sweep pays
 *  decode + prepare once. Always the specialized engine. */
TimingStats simulateTiming(const DecodedProgram &prog,
                           const TimedProgram &timed,
                           const CoreConfig &cfg,
                           const ExecLimits &limits = {});

/** Timing stats plus the cycle count observed at each requested
 *  retired-instruction boundary (TimedCore::setCheckpoints). */
struct PhasedTimingStats
{
    TimingStats stats;
    /** checkpointCycles[i] = cycles after boundaries[i] retires; one
     *  entry per boundary actually reached before the run ended. */
    std::vector<uint64_t> checkpointCycles;
};

/** Timed run that records the cycle count at each retired-instruction
 *  boundary — the per-phase CPI primitive (fidelity scoring cuts both
 *  the original and the clone at the original's phase boundaries).
 *  Checkpoints ride the specialized engine's retire path, so the
 *  timing result is identical to simulateTiming over the same decode.
 *  @p boundaries must be strictly increasing. */
PhasedTimingStats
simulateTimingPhased(const DecodedProgram &prog, const CoreConfig &cfg,
                     std::vector<uint64_t> boundaries,
                     const ExecLimits &limits = {});

} // namespace bsyn::sim

#endif // BSYN_SIM_CORE_MODEL_HH

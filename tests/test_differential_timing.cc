/**
 * @file
 * Differential tests for the specialized timing engine: every suite
 * workload and the whole fuzz corpus run through the reference timing
 * model (CoreModel as an ExecObserver) and the specialized engine
 * (TimedProgram + TimedCore, with the cache and predictor state
 * machines inlined), and the cycle counts, cache/predictor statistics,
 * ExecStats and per-PC event counters must be identical. Superblock
 * fusion is checked both ways: a fused decode must time and count
 * exactly like an unfused one.
 * This is the property that lets the specialized engine be the default
 * timing path: purely an accelerator, never a semantic fork.
 */

#include <gtest/gtest.h>

#include "isa/lowering.hh"
#include "lang/frontend.hh"
#include "opt/pipeline.hh"
#include "sim/core_model.hh"
#include "sim/decoded_program.hh"
#include "sim/machine.hh"
#include "sim/timed_core.hh"
#include "workloads/suite.hh"

#include "program_fuzzer.hh"

namespace bsyn
{
namespace
{

/** One instance per benchmark: the timing differential does not need
 *  every input size of the same kernel. */
const std::vector<workloads::Workload> &
representativeSuite()
{
    static const std::vector<workloads::Workload> suite = [] {
        std::vector<workloads::Workload> out;
        std::string last;
        for (const auto &w : workloads::mibenchSuite()) {
            if (w.benchmark == last)
                continue;
            last = w.benchmark;
            out.push_back(w);
        }
        return out;
    }();
    return suite;
}

isa::MachineProgram
lowerAt(const workloads::Workload &w, opt::OptLevel level)
{
    ir::Module m = lang::compile(w.source, w.name());
    opt::optimize(m, level);
    return isa::lower(m, isa::targetX86());
}

void
expectTimingEq(const sim::TimingStats &ref, const sim::TimingStats &spec,
               const std::string &what)
{
    EXPECT_EQ(ref.instructions, spec.instructions) << what;
    EXPECT_EQ(ref.cycles, spec.cycles) << what;
    EXPECT_EQ(ref.branch.branches, spec.branch.branches) << what;
    EXPECT_EQ(ref.branch.correct, spec.branch.correct) << what;
    EXPECT_EQ(ref.l1d.accesses, spec.l1d.accesses) << what;
    EXPECT_EQ(ref.l1d.misses, spec.l1d.misses) << what;
    EXPECT_EQ(ref.l2.accesses, spec.l2.accesses) << what;
    EXPECT_EQ(ref.l2.misses, spec.l2.misses) << what;
}

/**
 * Run the reference and the specialized engine over @p prog under
 * @p cfg and assert every observable identical: TimingStats, the
 * ExecStats of every run, and the per-PC l1-miss / l2-miss /
 * mispredict counters. Both the fused and the fusion-free decode go
 * through both engines.
 */
void
expectEnginesAgree(const isa::MachineProgram &prog,
                   const sim::CoreConfig &cfg, const std::string &what)
{
    sim::DecodedProgram fused(prog);
    sim::DecodeOptions plain_opts;
    plain_opts.superblockFusion = false;
    sim::DecodedProgram plain(prog, plain_opts);

    // Reference: the CoreModel observer over the unfused decode.
    sim::PerPcTimingEvents ref_events;
    sim::CoreModel model(cfg);
    model.recordEvents(&ref_events, prog.size());
    sim::ExecStats ref_exec = sim::execute(plain, &model);
    sim::TimingStats ref = model.finish();

    // The same observer over the fused decode — what
    // simulateTiming(..., TimingEngine::Reference) runs: fusion must
    // replay the exact callback stream.
    sim::CoreModel obs_model(cfg);
    sim::ExecStats obs_exec = sim::execute(fused, &obs_model);
    sim::TimingStats obs = obs_model.finish();

    // Specialized engine over both decodes.
    sim::TimedProgram timed(fused, cfg);
    sim::PerPcTimingEvents spec_events;
    sim::TimedCore core(cfg);
    core.recordEvents(&spec_events, prog.size());
    sim::ExecStats spec_exec =
        sim::executeTimedSpecialized(fused, timed, core);
    sim::TimingStats spec = core.finish();

    sim::TimedProgram timed_plain(plain, cfg);
    sim::TimedCore plain_core(cfg);
    sim::ExecStats plain_exec =
        sim::executeTimedSpecialized(plain, timed_plain, plain_core);
    sim::TimingStats plain_spec = plain_core.finish();

    expectTimingEq(ref, obs, what + " [observer]");
    expectTimingEq(ref, spec, what + " [specialized]");
    expectTimingEq(ref, plain_spec, what + " [specialized, unfused]");
    EXPECT_TRUE(ref_exec == obs_exec) << what;
    EXPECT_TRUE(ref_exec == spec_exec) << what;
    EXPECT_TRUE(ref_exec == plain_exec) << what;
    EXPECT_TRUE(ref_events == spec_events) << what;

    // And the default public entry point agrees with the hand-driven
    // runs.
    sim::TimingStats api_spec = sim::simulateTiming(fused, cfg);
    expectTimingEq(ref, api_spec, what + " [api specialized]");
}

class TimingDifferential
    : public ::testing::TestWithParam<std::tuple<size_t, opt::OptLevel>>
{};

TEST_P(TimingDifferential, CyclesStatsAndEventsIdentical)
{
    const auto &[idx, level] = GetParam();
    const workloads::Workload &w = representativeSuite()[idx];
    isa::MachineProgram prog = lowerAt(w, level);
    expectEnginesAgree(prog, sim::ptlsimConfig(8).core, w.name());
}

std::string
timingDiffName(
    const ::testing::TestParamInfo<TimingDifferential::ParamType> &info)
{
    const auto &[idx, level] = info.param;
    std::string name = representativeSuite()[idx].benchmark;
    for (char &c : name)
        if (c == '/' || c == '-')
            c = '_';
    return name + "_" + opt::optLevelName(level);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, TimingDifferential,
    ::testing::Combine(
        ::testing::Range<size_t>(0, representativeSuite().size()),
        ::testing::Values(opt::OptLevel::O0, opt::OptLevel::O2)),
    timingDiffName);

TEST(TimingDifferential2, EveryPredictorCoreShapeAndCacheGeometry)
{
    // Cover all predictor state machines, the in-order issue path and
    // an L2-free hierarchy — every branch of the specialized engine
    // the ptlsim configuration alone would leave cold.
    const auto &w = workloads::findWorkload("sha/small");
    isa::MachineProgram prog = lowerAt(w, opt::OptLevel::O2);
    for (const char *pred :
         {"static", "bimodal", "gshare", "tournament"}) {
        for (bool in_order : {false, true}) {
            sim::CoreConfig cfg = sim::ptlsimConfig(8).core;
            cfg.predictor = pred;
            cfg.inOrder = in_order;
            expectEnginesAgree(prog, cfg,
                               std::string(pred) +
                                   (in_order ? " in-order" : " ooo"));
        }
    }
    sim::CoreConfig no_l2 = sim::ptlsimConfig(8).core;
    no_l2.hasL2 = false;
    expectEnginesAgree(prog, no_l2, "no-l2");

    sim::CoreConfig tiny = sim::ptlsimConfig(8).core;
    tiny.l1d.sizeBytes = 1024; // high miss rate: exercise the memo
    tiny.l1d.associativity = 1; // and the direct-mapped victim path
    expectEnginesAgree(prog, tiny, "tiny-l1");

    // The reference entry point is the observer run over its own
    // decode, so one case covers it.
    expectTimingEq(sim::simulateTiming(prog, tiny),
                   sim::simulateTiming(prog, tiny, sim::ExecLimits(),
                                       sim::TimingEngine::Reference),
                   "api reference");
}

class FuzzTimingDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzTimingDifferential, CyclesIdenticalAtO0AndO2)
{
    ProgramFuzzer fuzzer(GetParam());
    std::string src = fuzzer.generate();
    for (auto level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
        ir::Module m = lang::compile(src, "fuzz");
        opt::optimize(m, level);
        isa::MachineProgram prog = isa::lower(m, isa::targetX86());
        expectEnginesAgree(prog, sim::ptlsimConfig(8).core,
                           "seed " + std::to_string(GetParam()) +
                               " at " + opt::optLevelName(level));
    }
}

// The same seed range as test_fuzz's Seeds instantiation — one corpus,
// three differential properties across the test binaries.
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTimingDifferential,
                         ::testing::Range<uint64_t>(1, 41));

TEST(SuperblockStructure, ChainsPartitionTheBlocks)
{
    const auto &w = workloads::findWorkload("sha/small");
    isa::MachineProgram prog = lowerAt(w, opt::OptLevel::O2);
    sim::DecodedProgram decoded(prog);

    const auto &blocks = decoded.blocks();
    const auto &sbs = decoded.superblocks();
    ASSERT_FALSE(sbs.empty());

    // Superblocks tile the block list exactly, in order, no overlap.
    int32_t expect = 0;
    for (const auto &sb : sbs) {
        EXPECT_EQ(sb.firstBlock, expect);
        EXPECT_LT(sb.firstBlock, sb.endBlock);
        expect = sb.endBlock;
    }
    EXPECT_EQ(expect, static_cast<int32_t>(blocks.size()));

    for (size_t s = 0; s < sbs.size(); ++s) {
        for (int32_t b = sbs[s].firstBlock; b < sbs[s].endBlock; ++b) {
            EXPECT_EQ(decoded.superblockOf(b), static_cast<int>(s));
            // Every block but the chain's last falls through: its
            // final instruction is not a control transfer.
            const auto &blk = blocks[static_cast<size_t>(b)];
            bool last_in_chain = b + 1 == sbs[s].endBlock;
            const isa::MInst &tail =
                prog.code[static_cast<size_t>(blk.end - 1)];
            if (!last_in_chain) {
                EXPECT_FALSE(tail.isBlockEnd())
                    << "block " << b << " inside a chain must fall "
                    << "through";
            }
        }
    }
}

TEST(SuperblockStructure, FusedPairsAreWellFormed)
{
    // Wherever fusion fired, the successor PC must hold the matching
    // conditional branch (with its own dispatchable decode for side
    // entries) in the same superblock, and the fused instruction must
    // carry its target and sense.
    size_t fused_total = 0;
    for (const auto &w : representativeSuite()) {
        for (auto level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
            isa::MachineProgram prog = lowerAt(w, level);
            sim::DecodedProgram decoded(prog);
            const auto &code = decoded.code();
            for (size_t pc = 0; pc < code.size(); ++pc) {
                const sim::DecodedInst &d = code[pc];
                if (d.h < sim::Handler::BrCmpEq ||
                    d.h > sim::Handler::BrCmpGeU)
                    continue;
                ++fused_total;
                ASSERT_LT(pc + 1, code.size());
                const sim::DecodedInst &br = code[pc + 1];
                bool if_zero =
                    (d.flags & sim::DecodedInst::kBrIfZero) != 0;
                EXPECT_EQ(br.h, if_zero ? sim::Handler::CondBrZ
                                        : sim::Handler::CondBrNZ);
                EXPECT_EQ(br.a, d.dst);
                EXPECT_EQ(br.target, d.target);
                EXPECT_EQ(decoded.superblockOf(
                              decoded.blockOf(static_cast<int>(pc))),
                          decoded.superblockOf(decoded.blockOf(
                              static_cast<int>(pc) + 1)));
            }
        }
    }
    // The suite must actually exercise the fused handlers.
    EXPECT_GT(fused_total, 0u);
}

TEST(TimedCoreCheckpoints, CyclesAtBoundariesAreMonotonic)
{
    const auto &w = workloads::findWorkload("sha/small");
    isa::MachineProgram prog = lowerAt(w, opt::OptLevel::O2);
    sim::DecodedProgram decoded(prog);
    sim::CoreConfig cfg = sim::ptlsimConfig(8).core;
    sim::TimedProgram timed(decoded, cfg);

    sim::TimedCore probe(cfg);
    sim::executeTimedSpecialized(decoded, timed, probe);
    sim::TimingStats total = probe.finish();
    ASSERT_GT(total.instructions, 4u);

    std::vector<uint64_t> bounds = {
        total.instructions / 4, total.instructions / 2,
        (3 * total.instructions) / 4, total.instructions};
    sim::TimedCore core(cfg);
    core.setCheckpoints(bounds);
    sim::executeTimedSpecialized(decoded, timed, core);
    sim::TimingStats again = core.finish();
    expectTimingEq(total, again, "checkpointing must not perturb");

    const auto &cuts = core.checkpointCycles();
    ASSERT_EQ(cuts.size(), bounds.size());
    for (size_t i = 1; i < cuts.size(); ++i)
        EXPECT_LE(cuts[i - 1], cuts[i]);
    // The final boundary sits at end of run: full cycle count.
    EXPECT_EQ(cuts.back(), total.cycles);
}

} // namespace
} // namespace bsyn

/**
 * @file
 * Differential tests for the predecoded execution engine: every suite
 * workload and the whole test_fuzz program corpus run through both the
 * reference decode-per-step interpreter and the predecoded
 * threaded-dispatch engine, and the results — ExecStats including
 * captured output, and the profile JSON built on top of the observer
 * stream — must be identical bit for bit. This is the property that
 * lets the fast engine be the default everywhere: it is purely an
 * accelerator, never a semantic fork.
 */

#include <gtest/gtest.h>

#include "isa/lowering.hh"
#include "lang/frontend.hh"
#include "opt/pipeline.hh"
#include "profile/profiler.hh"
#include "sim/decoded_program.hh"
#include "workloads/suite.hh"

#include "program_fuzzer.hh"

namespace bsyn
{
namespace
{

/** One instance per benchmark: the engine differential does not need
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

class WorkloadDifferential
    : public ::testing::TestWithParam<std::tuple<size_t, opt::OptLevel>>
{};

TEST_P(WorkloadDifferential, StatsAndOutputIdentical)
{
    const auto &[idx, level] = GetParam();
    const workloads::Workload &w = representativeSuite()[idx];
    isa::MachineProgram prog = lowerAt(w, level);

    sim::ExecStats ref = sim::executeReference(prog);
    sim::DecodedProgram decoded(prog);
    sim::ExecStats fast = sim::execute(decoded);

    EXPECT_EQ(ref.instructions, fast.instructions) << w.name();
    EXPECT_EQ(ref.memReads, fast.memReads) << w.name();
    EXPECT_EQ(ref.memWrites, fast.memWrites) << w.name();
    EXPECT_EQ(ref.branches, fast.branches) << w.name();
    EXPECT_EQ(ref.takenBranches, fast.takenBranches) << w.name();
    EXPECT_EQ(ref.calls, fast.calls) << w.name();
    EXPECT_EQ(ref.exitCode, fast.exitCode) << w.name();
    EXPECT_EQ(ref.output, fast.output) << w.name();
}

std::string
workloadDiffName(
    const ::testing::TestParamInfo<WorkloadDifferential::ParamType> &info)
{
    const auto &[idx, level] = info.param;
    std::string name = representativeSuite()[idx].benchmark;
    for (char &c : name)
        if (c == '/' || c == '-')
            c = '_';
    return name + "_" + opt::optLevelName(level);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, WorkloadDifferential,
    ::testing::Combine(
        ::testing::Range<size_t>(0, representativeSuite().size()),
        ::testing::Values(opt::OptLevel::O0, opt::OptLevel::O2)),
    workloadDiffName);

TEST(ProfileDifferential, ProfileJsonIdenticalOnBothEngines)
{
    // The profiler attaches as an ExecObserver; the predecoded engine
    // must drive it through the exact same callback sequence, so the
    // serialized profile — block counts, edges, branch rates, miss
    // classes, the lot — is byte-identical.
    for (const auto &w : representativeSuite()) {
        ir::Module m = workloads::compileWorkload(w);

        profile::ProfileOptions fast_opts; // default: fused, predecoded
        profile::ProfileOptions ref_opts;  // observer, reference engine
        ref_opts.engine = profile::ProfileEngine::Observer;

        std::string fast_json =
            profile::profileModule(m, fast_opts).serialize();
        std::string ref_json =
            profile::profileModule(m, ref_opts).serialize();
        EXPECT_EQ(ref_json, fast_json) << w.name();
    }
}

class FuzzCorpusDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzCorpusDifferential, StatsIdenticalAtO0AndO2)
{
    ProgramFuzzer fuzzer(GetParam());
    std::string src = fuzzer.generate();
    for (auto level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
        ir::Module m = lang::compile(src, "fuzz");
        opt::optimize(m, level);
        isa::MachineProgram prog = isa::lower(m, isa::targetX86());
        sim::ExecStats ref = sim::executeReference(prog);
        sim::ExecStats fast = sim::execute(sim::DecodedProgram(prog));
        EXPECT_TRUE(ref == fast)
            << "seed " << GetParam() << " at "
            << opt::optLevelName(level) << "\n"
            << src;
    }
}

// The same seed range as test_fuzz's Seeds instantiation — one corpus,
// two differential properties.
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCorpusDifferential,
                         ::testing::Range<uint64_t>(1, 41));

TEST(DecodedStructure, BlocksPartitionTheProgram)
{
    const auto &w = workloads::findWorkload("sha/small");
    isa::MachineProgram prog = lowerAt(w, opt::OptLevel::O2);
    sim::DecodedProgram decoded(prog);

    ASSERT_EQ(decoded.size(), prog.size());
    ASSERT_FALSE(decoded.blocks().empty());

    // Blocks tile the PC range exactly, in order, with no overlap.
    int32_t expect = 0;
    for (const auto &b : decoded.blocks()) {
        EXPECT_EQ(b.first, expect);
        EXPECT_LT(b.first, b.end);
        expect = b.end;
    }
    EXPECT_EQ(expect, static_cast<int32_t>(prog.size()));

    // Every branch/jump target is a block leader, and blockOf() agrees
    // with the tiling.
    for (size_t pc = 0; pc < prog.size(); ++pc) {
        const isa::MInst &mi = prog.code[pc];
        if (mi.kind == isa::MKind::CondBr || mi.kind == isa::MKind::Jmp) {
            int b = decoded.blockOf(mi.target);
            EXPECT_EQ(decoded.blocks()[static_cast<size_t>(b)].first,
                      mi.target);
        }
        int b = decoded.blockOf(static_cast<int>(pc));
        EXPECT_LE(decoded.blocks()[static_cast<size_t>(b)].first,
                  static_cast<int32_t>(pc));
        EXPECT_LT(static_cast<int32_t>(pc),
                  decoded.blocks()[static_cast<size_t>(b)].end);
    }
}

} // namespace
} // namespace bsyn

#include "sim/core_model.hh"

#include <algorithm>

#include "sim/decoded_program.hh"
#include "sim/timed_core.hh"
#include "support/error.hh"

namespace bsyn::sim
{

using isa::MClass;
using isa::MInst;
using isa::MKind;

CoreModel::CoreModel(const CoreConfig &config)
    : cfg(config), l1(config.l1d), l2cache(config.l2),
      pred(makePredictor(config.predictor))
{
    robRing.assign(static_cast<size_t>(std::max(cfg.robSize, 1)), 0);
    ready.assign(64, 0);
}

CoreModel::~CoreModel() = default;

uint64_t &
CoreModel::regReady(int r)
{
    size_t idx = static_cast<size_t>(r);
    if (idx >= ready.size())
        ready.resize(idx + 64, 0);
    return ready[idx];
}

uint64_t
timingBaseLatency(MClass cls, const CoreConfig &cfg)
{
    switch (cls) {
      case MClass::IntAlu: return 1;
      case MClass::IntMul: return 4;
      case MClass::IntDiv: return 24;
      case MClass::FpAlu: return 5;   // x87-era add/sub/convert
      case MClass::FpMul: return 7;
      case MClass::FpDiv: return 38;
      case MClass::Load: return static_cast<uint64_t>(cfg.l1HitLatency);
      case MClass::Store: return 1;
      case MClass::Branch: return 1;
      case MClass::Jump: return 1;
      case MClass::Call: return 2;
      case MClass::Ret: return 2;
      case MClass::Other: return 1;
    }
    return 1;
}

uint64_t
CoreModel::baseLatency(MClass cls) const
{
    return timingBaseLatency(cls, cfg);
}

MClass
timingClass(const MInst &mi)
{
    if (mi.kind != MKind::Compute)
        return mi.cls();
    switch (mi.op) {
      case ir::Opcode::Mul:
        return MClass::IntMul;
      case ir::Opcode::Div:
      case ir::Opcode::Rem:
        return MClass::IntDiv;
      case ir::Opcode::FMul:
        return MClass::FpMul;
      case ir::Opcode::FDiv:
        return MClass::FpDiv;
      case ir::Opcode::FAdd:
      case ir::Opcode::FSub:
      case ir::Opcode::FNeg:
      case ir::Opcode::CvtIF:
      case ir::Opcode::CvtFI:
        return MClass::FpAlu;
      default:
        return MClass::IntAlu;
    }
}

PreparedTimingInst
prepareTimingInst(const MInst &mi, const CoreConfig &cfg)
{
    PreparedTimingInst p;
    p.cls = timingClass(mi);
    p.dst = mi.dst;
    // A fused load operand serializes in front of the operation.
    if (mi.kind == MKind::Compute && mi.loadFused)
        p.fusedLoadLatency = static_cast<uint32_t>(cfg.l1HitLatency);
    p.isBranch = mi.kind == MKind::CondBr;
    p.isCallRet = mi.kind == MKind::Call || mi.kind == MKind::Ret;
    auto addSrc = [&](int r) {
        if (r >= 0 && p.numSrcs < 4)
            p.srcs[p.numSrcs++] = r;
    };
    addSrc(mi.src0);
    addSrc(mi.src1);
    if (mi.memValid)
        addSrc(mi.mem.indexReg);
    // Call/print argument registers gate issue too (cap at 4 tracked).
    for (int a : mi.args)
        addSrc(a);
    return p;
}

void
CoreModel::onInstruction(int pc, const MInst &mi)
{
    retirePending();
    PreparedTimingInst p = prepareTimingInst(mi, cfg);
    pending.valid = true;
    pending.pc = pc;
    pending.cls = p.cls;
    pending.extraLatency = p.fusedLoadLatency;
    pending.dst = p.dst;
    pending.numSrcs = p.numSrcs;
    for (int i = 0; i < p.numSrcs; ++i)
        pending.srcs[i] = p.srcs[i];
    pending.isBranch = p.isBranch;
    pending.taken = false;
    pending.isCallRet = p.isCallRet;
    pending.hasLoad = false;
    pending.hasStore = false;
}

void
CoreModel::onMemAccess(int, uint64_t addr, uint32_t size, bool is_write,
                       uint64_t)
{
    bool l1_hit = l1.access(addr, size);
    bool l2_hit = true;
    if (!l1_hit && cfg.hasL2)
        l2_hit = l2cache.access(addr, size);
    if (events && !l1_hit) {
        ++events->l1Misses[static_cast<size_t>(pending.pc)];
        if (cfg.hasL2 && !l2_hit)
            ++events->l2Misses[static_cast<size_t>(pending.pc)];
    }
    if (is_write) {
        pending.hasStore = true;
        pending.storeAddr = addr >> 2; // word granularity
        return; // stores retire without stalling the chain
    }
    pending.hasLoad = true;
    pending.loadAddr = addr >> 2;
    if (!l1_hit) {
        pending.extraLatency += static_cast<uint64_t>(cfg.l1MissPenalty);
        if (cfg.hasL2 && !l2_hit)
            pending.extraLatency +=
                static_cast<uint64_t>(cfg.l2MissPenalty);
    }
}

void
CoreModel::onBranch(int, bool taken)
{
    pending.taken = taken;
}

void
CoreModel::retirePending()
{
    if (!pending.valid)
        return;
    Pending p = pending;
    pending.valid = false;
    ++instructions;

    // --- Dispatch: width-limited, gated by fetch redirect and ROB space.
    uint64_t rob_free = robRing[robHead]; // retire cycle of the entry we
                                          // are about to reuse
    uint64_t min_dispatch = std::max(fetchReady, rob_free);
    if (min_dispatch > dispatchCycle) {
        dispatchCycle = min_dispatch;
        dispatchSlots = 0;
    }
    if (dispatchSlots >= cfg.width) {
        ++dispatchCycle;
        dispatchSlots = 0;
        if (dispatchCycle < min_dispatch)
            dispatchCycle = min_dispatch;
    }
    ++dispatchSlots;

    // --- Issue: operands ready; in-order cores also issue in order.
    uint64_t issue = dispatchCycle;
    for (int i = 0; i < p.numSrcs; ++i)
        issue = std::max(issue, regReady(p.srcs[i]));
    if (p.hasLoad) {
        const FwdEntry &e = storeReady[p.loadAddr % fwdSlots];
        if (e.addr == p.loadAddr)
            issue = std::max(issue, e.ready); // forwarded value
    }
    if (cfg.inOrder) {
        if (issue < lastIssue) {
            issue = lastIssue;
        }
        if (issue == lastIssue && issueSlots >= cfg.width)
            issue = lastIssue + 1;
        if (issue != lastIssue) {
            lastIssue = issue;
            issueSlots = 0;
        }
        ++issueSlots;
    }

    uint64_t complete = issue + baseLatency(p.cls) + p.extraLatency;

    if (p.dst >= 0)
        regReady(p.dst) = complete;
    if (p.hasStore) {
        FwdEntry &e = storeReady[p.storeAddr % fwdSlots];
        e.addr = p.storeAddr;
        e.ready = complete;
    }
    if (p.isCallRet) {
        // Frame switch: approximate by making every register ready when
        // the call/return completes.
        for (auto &r : ready)
            r = std::max(r, complete);
    }

    // --- In-order retirement (ROB).
    uint64_t retire = std::max(complete, lastRetire);
    lastRetire = retire;
    robRing[robHead] = retire;
    robHead = (robHead + 1) % robRing.size();

    // --- Branch resolution.
    if (p.isBranch) {
        bool predicted = pred->predict(static_cast<uint64_t>(p.pc));
        pred->branch(static_cast<uint64_t>(p.pc), p.taken);
        if (predicted != p.taken) {
            if (events)
                ++events->mispredicts[static_cast<size_t>(p.pc)];
            fetchReady = std::max(
                fetchReady,
                complete + static_cast<uint64_t>(cfg.mispredictPenalty));
        }
    }
}

TimingStats
CoreModel::finish()
{
    retirePending();
    TimingStats out;
    out.instructions = instructions;
    out.cycles = std::max<uint64_t>(lastRetire, 1);
    out.branch = pred->stats();
    out.l1d = l1.stats();
    out.l2 = l2cache.stats();
    return out;
}

TimingStats
simulateTiming(const isa::MachineProgram &prog, const CoreConfig &cfg,
               const ExecLimits &limits, TimingEngine engine)
{
    return simulateTiming(DecodedProgram(prog), cfg, limits, engine);
}

TimingStats
simulateTiming(const DecodedProgram &prog, const CoreConfig &cfg,
               const ExecLimits &limits, TimingEngine engine)
{
    if (engine == TimingEngine::Reference) {
        CoreModel model(cfg);
        execute(prog, &model, limits);
        return model.finish();
    }
    return simulateTiming(prog, TimedProgram(prog, cfg), cfg, limits);
}

TimingStats
simulateTiming(const DecodedProgram &prog, const TimedProgram &timed,
               const CoreConfig &cfg, const ExecLimits &limits)
{
    BSYN_ASSERT(timed.l1HitLatency() == cfg.l1HitLatency,
                "TimedProgram prepared for l1HitLatency=%d replayed "
                "under l1HitLatency=%d",
                timed.l1HitLatency(), cfg.l1HitLatency);
    TimedCore core(cfg);
    executeTimedSpecialized(prog, timed, core, limits);
    return core.finish();
}

PhasedTimingStats
simulateTimingPhased(const DecodedProgram &prog, const CoreConfig &cfg,
                     std::vector<uint64_t> boundaries,
                     const ExecLimits &limits)
{
    TimedProgram timed(prog, cfg);
    TimedCore core(cfg);
    core.setCheckpoints(std::move(boundaries));
    executeTimedSpecialized(prog, timed, core, limits);
    PhasedTimingStats out;
    out.stats = core.finish();
    out.checkpointCycles = core.checkpointCycles();
    return out;
}

} // namespace bsyn::sim

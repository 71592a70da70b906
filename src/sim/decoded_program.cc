#include "sim/decoded_program.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sim/core_model.hh"
#include "sim/memory_image.hh"
#include "sim/timed_core.hh"
#include "sim/printf_format.hh"
#include "sim/value_bits.hh"
#include "support/error.hh"

// Threaded dispatch needs the GNU computed-goto extension; elsewhere the
// same handler bodies compile into a dense switch.
#if defined(__GNUC__) || defined(__clang__)
#define BSYN_COMPUTED_GOTO 1
#else
#define BSYN_COMPUTED_GOTO 0
#endif

// The dispatch loop is one huge function, so the compiler's
// function-growth limits stop inlining long before the hook wrappers
// are folded in — and a single out-of-line hook call makes the
// checked-out Local's address escape, which blocks scalarizing it
// into registers for the whole loop. Force every wrapper on the
// hook path inline; cold bodies behind them stay out of line.
#if defined(__GNUC__) || defined(__clang__)
#define BSYN_HOOK_INLINE inline __attribute__((always_inline))
#else
#define BSYN_HOOK_INLINE inline
#endif

namespace bsyn::sim
{

namespace
{

using isa::MInst;
using isa::MKind;
using ir::Opcode;
using ir::Type;

/** Raw immediate bits exactly as the reference engine's immRaw(). */
uint64_t
immRawBits(const MInst &mi)
{
    if (mi.type == Type::F64)
        return f64Bits(mi.fimm);
    return static_cast<uint32_t>(static_cast<uint64_t>(mi.imm));
}

void
decodeMem(const MInst &mi, DecodedInst &d)
{
    if (mi.mem.symbol == ir::MemRef::frameBase)
        d.flags |= DecodedInst::kMemFrame;
    else
        d.memSym = mi.mem.symbol;
    d.memIndex = mi.mem.indexReg;
    d.memScale = mi.mem.scale;
    d.memOffset = mi.mem.offset;
    if (mi.type == Type::F64)
        d.flags |= DecodedInst::kMem64;
}

/**
 * The MKind::Compute decision tree of the reference engine, folded into
 * one handler id. Combinations the reference panics on at execution
 * (e.g. an integer opcode with an F64 type field) map to Trap so a
 * malformed-but-never-executed instruction stays lazily tolerated.
 */
Handler
computeHandler(const MInst &mi)
{
    // Unary/move forms are matched before the type split, exactly like
    // the switch at the top of the reference executeCompute().
    switch (mi.op) {
      case Opcode::MovImm: return Handler::MovImm;
      case Opcode::Mov: return Handler::Mov;
      case Opcode::Neg: return Handler::NegInt;
      case Opcode::Not: return Handler::NotInt;
      case Opcode::FNeg: return Handler::FNeg;
      case Opcode::CvtIF:
        return mi.type == Type::U32 ? Handler::CvtIFUnsigned
                                    : Handler::CvtIFSigned;
      case Opcode::CvtFI:
        return mi.type == Type::U32 ? Handler::CvtFIUnsigned
                                    : Handler::CvtFISigned;
      default:
        break;
    }

    if (mi.type == Type::F64) {
        switch (mi.op) {
          case Opcode::FAdd: return Handler::FAdd;
          case Opcode::FSub: return Handler::FSub;
          case Opcode::FMul: return Handler::FMul;
          case Opcode::FDiv: return Handler::FDiv;
          case Opcode::CmpEq: return Handler::CmpEqF;
          case Opcode::CmpNe: return Handler::CmpNeF;
          case Opcode::CmpLt: return Handler::CmpLtF;
          case Opcode::CmpLe: return Handler::CmpLeF;
          case Opcode::CmpGt: return Handler::CmpGtF;
          case Opcode::CmpGe: return Handler::CmpGeF;
          default: return Handler::Trap;
        }
    }

    bool s = mi.type == Type::I32;
    switch (mi.op) {
      case Opcode::Add: return Handler::Add;
      case Opcode::Sub: return Handler::Sub;
      case Opcode::Mul: return Handler::Mul;
      case Opcode::Div: return s ? Handler::DivS : Handler::DivU;
      case Opcode::Rem: return s ? Handler::RemS : Handler::RemU;
      case Opcode::And: return Handler::And;
      case Opcode::Or: return Handler::Or;
      case Opcode::Xor: return Handler::Xor;
      case Opcode::Shl: return Handler::Shl;
      case Opcode::Shr: return s ? Handler::ShrS : Handler::ShrU;
      case Opcode::CmpEq: return Handler::CmpEqInt;
      case Opcode::CmpNe: return Handler::CmpNeInt;
      case Opcode::CmpLt: return s ? Handler::CmpLtS : Handler::CmpLtU;
      case Opcode::CmpLe: return s ? Handler::CmpLeS : Handler::CmpLeU;
      case Opcode::CmpGt: return s ? Handler::CmpGtS : Handler::CmpGtU;
      case Opcode::CmpGe: return s ? Handler::CmpGeS : Handler::CmpGeU;
      default: return Handler::Trap;
    }
}

/** How many source slots a compute opcode reads. */
int
computeArity(Opcode op)
{
    switch (op) {
      case Opcode::MovImm:
        return 0;
      case Opcode::Mov:
      case Opcode::Neg:
      case Opcode::Not:
      case Opcode::FNeg:
      case Opcode::CvtIF:
      case Opcode::CvtFI:
        return 1;
      default:
        return 2;
    }
}

/**
 * Specialize a Load/Store handler by its statically known operand
 * form: frame-relative, constant offset, no index register — the
 * address is curFp plus a constant. Handler enum layout guarantees
 * the FrameC variant sits a fixed distance from its generic form.
 */
void
specializeMem(DecodedInst &d)
{
    if (!(d.flags & DecodedInst::kMemFrame) || d.memIndex >= 0)
        return;
    switch (d.h) {
      case Handler::Load32: d.h = Handler::Load32FrameC; break;
      case Handler::Load64: d.h = Handler::Load64FrameC; break;
      case Handler::StoreReg32: d.h = Handler::StoreReg32FrameC; break;
      case Handler::StoreReg64: d.h = Handler::StoreReg64FrameC; break;
      case Handler::StoreImm32: d.h = Handler::StoreImm32FrameC; break;
      case Handler::StoreImm64: d.h = Handler::StoreImm64FrameC; break;
      default: break;
    }
}

DecodedInst
decodeOne(const isa::MachineProgram &prog, int pc)
{
    const MInst &mi = prog.code[static_cast<size_t>(pc)];
    DecodedInst d;
    d.dst = mi.dst;
    d.imm = immRawBits(mi);
    d.tcls = static_cast<uint8_t>(timingClass(mi));

    switch (mi.kind) {
      case MKind::Load:
        d.h = mi.type == Type::F64 ? Handler::Load64 : Handler::Load32;
        decodeMem(mi, d);
        specializeMem(d);
        break;

      case MKind::Store:
        if (mi.srcIsImm) {
            d.h = mi.type == Type::F64 ? Handler::StoreImm64
                                       : Handler::StoreImm32;
        } else {
            d.h = mi.type == Type::F64 ? Handler::StoreReg64
                                       : Handler::StoreReg32;
            d.a = mi.src0;
        }
        decodeMem(mi, d);
        specializeMem(d);
        break;

      case MKind::CondBr:
        d.h = mi.brIfZero ? Handler::CondBrZ : Handler::CondBrNZ;
        d.a = mi.src0;
        d.target = mi.target;
        BSYN_ASSERT(mi.target >= 0 &&
                        static_cast<size_t>(mi.target) < prog.code.size(),
                    "branch target %d out of range at pc %d", mi.target,
                    pc);
        break;

      case MKind::Jmp:
        d.h = Handler::Jmp;
        d.target = mi.target;
        BSYN_ASSERT(mi.target >= 0 &&
                        static_cast<size_t>(mi.target) < prog.code.size(),
                    "jump target %d out of range at pc %d", mi.target, pc);
        break;

      case MKind::Call:
        d.h = Handler::Call;
        d.target = mi.callee;
        BSYN_ASSERT(mi.callee >= 0 &&
                        static_cast<size_t>(mi.callee) < prog.funcs.size(),
                    "callee %d out of range at pc %d", mi.callee, pc);
        break;

      case MKind::Ret:
        d.h = Handler::Ret;
        d.a = mi.src0;
        break;

      case MKind::Print:
        d.h = Handler::Print;
        break;

      case MKind::Compute: {
        d.h = computeHandler(mi);
        if (mi.loadFused || mi.storeFused) {
            decodeMem(mi, d);
            // decodeMem sets kMem64 from the compute's own type field —
            // the width the reference engine's loadTyped/storeTyped use
            // for fused accesses.
            if (mi.loadFused)
                d.flags |= DecodedInst::kFusedLoad;
            if (mi.storeFused)
                d.flags |= DecodedInst::kFusedStore;
        }
        // Split the operand forms: each slot is a register, the
        // immediate, or the fused load — the reference re-derives this
        // per step in computeSrc().
        int arity = computeArity(mi.op);
        auto slot = [&](int which, int reg_field, uint8_t &mode,
                        int32_t &reg_out) {
            if (mi.loadFused && mi.fusedSlot == which) {
                mode = OperandFused;
            } else if (mi.srcIsImm && mi.immSlot == which) {
                mode = OperandImm;
            } else if (reg_field >= 0) {
                mode = OperandReg;
                reg_out = reg_field;
            } else {
                // The reference asserts on an undefined source slot at
                // execution time; stay lazily tolerant of dead junk.
                d.h = Handler::Trap;
            }
        };
        if (arity >= 1)
            slot(0, mi.src0, d.aMode, d.a);
        if (arity >= 2)
            slot(1, mi.src1, d.bMode, d.b);
        break;
      }
    }
    return d;
}

} // namespace

const char *
handlerName(Handler h)
{
    static const char *const names[] = {
        "load32", "load64", "store_r32", "store_r64", "store_i32",
        "store_i64", "condbr_nz", "condbr_z", "jmp", "call", "ret",
        "print", "mov", "movimm", "neg", "not", "fneg", "cvt_if_s",
        "cvt_if_u", "cvt_fi_s", "cvt_fi_u", "add", "sub", "mul", "div_s",
        "div_u", "rem_s", "rem_u", "and", "or", "xor", "shl", "shr_s",
        "shr_u", "cmpeq", "cmpne", "cmplt_s", "cmple_s", "cmpgt_s",
        "cmpge_s", "cmplt_u", "cmple_u", "cmpgt_u", "cmpge_u", "fadd",
        "fsub", "fmul", "fdiv", "cmpeq_f", "cmpne_f", "cmplt_f",
        "cmple_f", "cmpgt_f", "cmpge_f", "load32_fc", "load64_fc",
        "store_r32_fc", "store_r64_fc", "store_i32_fc", "store_i64_fc",
        "brcmp_eq", "brcmp_ne", "brcmp_lt_s", "brcmp_le_s",
        "brcmp_gt_s", "brcmp_ge_s", "brcmp_lt_u", "brcmp_le_u",
        "brcmp_gt_u", "brcmp_ge_u", "trap",
    };
    static_assert(sizeof(names) / sizeof(names[0]) ==
                      static_cast<size_t>(Handler::Count),
                  "handler name table out of sync");
    return names[static_cast<size_t>(h)];
}

DecodedProgram::DecodedProgram(const isa::MachineProgram &prog,
                               const DecodeOptions &opts)
    : prog_(&prog)
{
    code_.reserve(prog.code.size());
    for (size_t pc = 0; pc < prog.code.size(); ++pc)
        code_.push_back(decodeOne(prog, static_cast<int>(pc)));

    std::vector<int> leaders = prog.blockLeaders();
    if (!prog.code.empty() && (leaders.empty() || leaders.front() != 0))
        leaders.insert(leaders.begin(), 0);
    blockOf_.assign(prog.code.size(), 0);
    blocks_.reserve(leaders.size());
    for (size_t b = 0; b < leaders.size(); ++b) {
        DecodedBlock blk;
        blk.first = leaders[b];
        blk.end = b + 1 < leaders.size()
                      ? leaders[b + 1]
                      : static_cast<int32_t>(prog.code.size());
        for (int32_t pc = blk.first; pc < blk.end; ++pc)
            blockOf_[static_cast<size_t>(pc)] = static_cast<int32_t>(b);
        blocks_.push_back(blk);
    }

    // Superblocks: chain consecutive blocks while the earlier block
    // falls through (its last instruction is not a control transfer —
    // the successor block's leader exists only because it is a branch
    // target elsewhere).
    superblockOf_.assign(blocks_.size(), 0);
    for (size_t b = 0; b < blocks_.size();) {
        size_t e = b;
        while (e + 1 < blocks_.size()) {
            const DecodedBlock &blk = blocks_[e];
            if (blk.first >= blk.end)
                break;
            const MInst &last =
                prog.code[static_cast<size_t>(blk.end - 1)];
            if (last.isBlockEnd())
                break;
            ++e;
        }
        Superblock sb;
        sb.firstBlock = static_cast<int32_t>(b);
        sb.endBlock = static_cast<int32_t>(e + 1);
        for (size_t i = b; i <= e; ++i)
            superblockOf_[i] = static_cast<int32_t>(superblocks_.size());
        superblocks_.push_back(sb);
        b = e + 1;
    }

    // Superblock fusion: an integer compare whose value feeds the
    // conditional branch at the next PC inside the same superblock
    // dispatches as one BrCmp* handler. The CondBr keeps its own
    // decode at pc+1 (side entries from other branches stay legal);
    // the fused handler performs both instructions' retire accounting,
    // so every dispatch mode stays byte-identical to the unfused form.
    if (!opts.superblockFusion)
        return;
    for (size_t pc = 0; pc + 1 < code_.size(); ++pc) {
        DecodedInst &d = code_[pc];
        Handler fused;
        switch (d.h) {
          case Handler::CmpEqInt: fused = Handler::BrCmpEq; break;
          case Handler::CmpNeInt: fused = Handler::BrCmpNe; break;
          case Handler::CmpLtS: fused = Handler::BrCmpLtS; break;
          case Handler::CmpLeS: fused = Handler::BrCmpLeS; break;
          case Handler::CmpGtS: fused = Handler::BrCmpGtS; break;
          case Handler::CmpGeS: fused = Handler::BrCmpGeS; break;
          case Handler::CmpLtU: fused = Handler::BrCmpLtU; break;
          case Handler::CmpLeU: fused = Handler::BrCmpLeU; break;
          case Handler::CmpGtU: fused = Handler::BrCmpGtU; break;
          case Handler::CmpGeU: fused = Handler::BrCmpGeU; break;
          default: continue;
        }
        if (d.dst < 0)
            continue;
        if (d.flags &
            (DecodedInst::kFusedLoad | DecodedInst::kFusedStore))
            continue; // keep fused-memory compares on the generic path
        const DecodedInst &br = code_[pc + 1];
        if (br.h != Handler::CondBrNZ && br.h != Handler::CondBrZ)
            continue;
        if (br.a != d.dst)
            continue;
        if (superblockOf_[static_cast<size_t>(
                blockOf_[pc])] !=
            superblockOf_[static_cast<size_t>(blockOf_[pc + 1])])
            continue;
        d.h = fused;
        d.target = br.target;
        if (br.h == Handler::CondBrZ)
            d.flags |= DecodedInst::kBrIfZero;
    }
}

namespace
{

/** A call frame: registers live in a shared stack for speed. */
struct Frame
{
    int funcIndex = -1;
    size_t regBase = 0;
    uint64_t fp = 0;
    int retPc = -1;
    int retDst = -1;
};

/** Fetch one pre-split compute operand. */
inline uint64_t
fetchOperand(uint8_t mode, int32_t r, uint64_t imm, uint64_t fused,
             const uint64_t *regs)
{
    if (mode == OperandReg)
        return regs[static_cast<size_t>(r)];
    if (mode == OperandImm)
        return imm;
    return fused;
}

/**
 * Per-dispatch-mode instrumentation, resolved at compile time: each
 * Hooks type instantiates its own copy of the dispatch loop (its own
 * computed-goto handler table) with the hook bodies inlined into the
 * handlers, so the fast path carries no callback sites at all and the
 * instrumented modes pay plain counter updates instead of virtual
 * calls.
 *
 * Each Hooks type additionally defines a Local value type the engine
 * checks out with enter() before the first dispatch, threads through
 * every hook call, and hands back with leave() on exit. Hot per-mode
 * state placed there lives in the dispatch loop's own stack frame —
 * its address never escapes, so the compiler can keep it in registers
 * across the simulated program's memory writes, which member state
 * behind the hooks reference cannot be (every handler store would
 * force a reload). Modes without register-resident state use an empty
 * Local, which compiles away.
 */

/** The observer-free fast path: every hook compiles away. */
struct NullHooks
{
    struct Local
    {};
    BSYN_HOOK_INLINE Local enter() { return {}; }
    BSYN_HOOK_INLINE void leave(Local &) {}
    BSYN_HOOK_INLINE void onInstruction(Local &, int) {}
    BSYN_HOOK_INLINE void onMemRead(Local &, int, uint64_t, uint32_t, uint64_t) {}
    BSYN_HOOK_INLINE void onMemWrite(Local &, int, uint64_t, uint32_t, uint64_t) {}
    BSYN_HOOK_INLINE void onBranch(Local &, int, bool) {}
};

/** Generic ExecObserver dispatch (virtual call per event). */
struct ObserverHooks
{
    const isa::MachineProgram &prog;
    ExecObserver &obs;

    struct Local
    {};
    BSYN_HOOK_INLINE Local enter() { return {}; }
    BSYN_HOOK_INLINE void leave(Local &) {}

    BSYN_HOOK_INLINE void
    onInstruction(Local &, int pc)
    {
        obs.onInstruction(pc, prog.code[static_cast<size_t>(pc)]);
    }
    BSYN_HOOK_INLINE void
    onMemRead(Local &, int pc, uint64_t addr, uint32_t size,
              uint64_t raw)
    {
        obs.onMemAccess(pc, addr, size, false, raw);
    }
    BSYN_HOOK_INLINE void
    onMemWrite(Local &, int pc, uint64_t addr, uint32_t size,
               uint64_t raw)
    {
        obs.onMemAccess(pc, addr, size, true, raw);
    }
    BSYN_HOOK_INLINE void
    onBranch(Local &, int pc, bool taken)
    {
        obs.onBranch(pc, taken);
    }
};

/**
 * The fused profiling mode: dense per-PC counters plus the profiling
 * cache, with Cache::access() inlined into the memory handlers. The
 * branch accounting mirrors profile::BranchStats::record() exactly.
 * Slice checkpointing costs one compare per retired instruction (the
 * cut itself is cold); a recorder without an output never cuts.
 */
struct ProfileHooks
{
    InstrumentedCounters &c;
    Cache cache;
    SliceRecorder &rec;

    struct Local
    {};
    BSYN_HOOK_INLINE Local enter() { return {}; }
    BSYN_HOOK_INLINE void leave(Local &) {}

    BSYN_HOOK_INLINE void
    onInstruction(Local &, int pc)
    {
        rec.beforeRetire(c);
        ++c.execCount[static_cast<size_t>(pc)];
    }
    BSYN_HOOK_INLINE void
    onMemRead(Local &, int pc, uint64_t addr, uint32_t size, uint64_t)
    {
        note(pc, addr, size);
    }
    BSYN_HOOK_INLINE void
    onMemWrite(Local &, int pc, uint64_t addr, uint32_t size, uint64_t)
    {
        note(pc, addr, size);
    }
    BSYN_HOOK_INLINE void
    onBranch(Local &, int pc, bool taken)
    {
        auto &b = c.branch[static_cast<size_t>(pc)];
        ++b.executions;
        b.taken += taken;
        if (b.hasLast && taken != (b.lastOutcome != 0))
            ++b.transitions;
        b.lastOutcome = taken;
        b.hasLast = 1;
    }

  private:
    BSYN_HOOK_INLINE void
    note(int pc, uint64_t addr, uint32_t size)
    {
        ++c.memAccesses[static_cast<size_t>(pc)];
        if (!cache.access(addr, size))
            ++c.memMisses[static_cast<size_t>(pc)];
    }
};

/** The specialized timed mode: a TimedCore stepped over the dense
 *  per-PC TimedProgram metadata. Each hook hands the core the
 *  prepared instruction it refers to, so the per-class retire paths
 *  read their metadata straight from the dense array instead of an
 *  in-flight slot; the scheduler's hot scalars ride in the engine's
 *  checked-out Local (TimedCore::Sched), where they stay in
 *  registers. */
struct SpecTimingHooks
{
    TimedCore &core;
    const TimedProgram::Inst *ti;

    using Local = TimedCore::Sched;
    BSYN_HOOK_INLINE Local enter() { return core.makeSched(); }
    BSYN_HOOK_INLINE void leave(Local &l) { core.sync(l); }

    BSYN_HOOK_INLINE void
    onInstruction(Local &l, int pc)
    {
        core.step(l, ti[static_cast<size_t>(pc)], pc);
    }
    BSYN_HOOK_INLINE void
    onMemRead(Local &l, int pc, uint64_t addr, uint32_t size, uint64_t)
    {
        core.noteRead(l, ti[static_cast<size_t>(pc)], pc, addr, size);
    }
    BSYN_HOOK_INLINE void
    onMemWrite(Local &l, int pc, uint64_t addr, uint32_t size, uint64_t)
    {
        core.noteWrite(l, ti[static_cast<size_t>(pc)], pc, addr, size);
    }
    BSYN_HOOK_INLINE void
    onBranch(Local &l, int pc, bool taken)
    {
        core.noteBranch(l, ti[static_cast<size_t>(pc)], pc, taken);
    }
};

/**
 * The threaded-dispatch execution engine, templated over the
 * instrumentation mode (see the Hooks types above).
 */
template <class Hooks>
class Engine
{
  public:
    Engine(const DecodedProgram &dp, Hooks &h, const ExecLimits &lim)
        : prog(dp.program()), dcode(dp.code().data()), hooks(h),
          limits(lim), mem(prog.globals)
    {}

    ExecStats run();

  private:
    BSYN_HOOK_INLINE uint64_t
    ea(const DecodedInst &d) const
    {
        uint64_t base = (d.flags & DecodedInst::kMemFrame)
                            ? curFp
                            : mem.globalAddress(d.memSym);
        int64_t index = 0;
        if (d.memIndex >= 0)
            index = static_cast<int64_t>(
                        asI32(regs[static_cast<size_t>(d.memIndex)])) *
                    d.memScale;
        return base + static_cast<uint64_t>(
                          index + static_cast<int64_t>(d.memOffset));
    }

    BSYN_HOOK_INLINE void
    noteRead(typename Hooks::Local &l, int pc, uint64_t addr,
             uint32_t size, uint64_t raw)
    {
        ++stats.memReads;
        hooks.onMemRead(l, pc, addr, size, raw);
    }

    BSYN_HOOK_INLINE void
    noteWrite(typename Hooks::Local &l, int pc, uint64_t addr,
              uint32_t size, uint64_t raw)
    {
        ++stats.memWrites;
        hooks.onMemWrite(l, pc, addr, size, raw);
    }

    BSYN_HOOK_INLINE uint64_t
    fusedLoad(typename Hooks::Local &l, const DecodedInst &d, int pc)
    {
        uint64_t addr = ea(d);
        uint64_t v;
        uint32_t size;
        if (d.flags & DecodedInst::kMem64) {
            v = mem.load64(addr);
            size = 8;
        } else {
            v = mem.load32(addr);
            size = 4;
        }
        noteRead(l, pc, addr, size, v);
        return v;
    }

    BSYN_HOOK_INLINE void
    finishCompute(typename Hooks::Local &l, const DecodedInst &d,
                  uint64_t result, int pc)
    {
        if (d.dst >= 0)
            regs[static_cast<size_t>(d.dst)] = result;
        if (d.flags & DecodedInst::kFusedStore) {
            uint64_t addr = ea(d);
            uint32_t size;
            if (d.flags & DecodedInst::kMem64) {
                mem.store64(addr, result);
                size = 8;
            } else {
                mem.store32(addr, asU32(result));
                size = 4;
            }
            noteWrite(l, pc, addr, size, result);
        }
    }

    void
    pushFrame(int func_index, int ret_pc, int ret_dst)
    {
        const isa::MFunction &fn =
            prog.funcs[static_cast<size_t>(func_index)];
        uint64_t frame_bytes = (fn.frameSize + 15u) & ~15u;
        if (sp < mem.stackLimit() + frame_bytes)
            fatal("stack overflow in '%s'", fn.name.c_str());
        sp -= frame_bytes;

        Frame f;
        f.funcIndex = func_index;
        f.regBase = regStack.size();
        f.fp = sp;
        f.retPc = ret_pc;
        f.retDst = ret_dst;
        regStack.resize(regStack.size() + fn.numRegs, 0);
        frames.push_back(f);
        regs = regStack.data() + f.regBase;
        curFp = sp;
    }

    void
    popFrame()
    {
        const Frame &f = frames.back();
        const isa::MFunction &fn =
            prog.funcs[static_cast<size_t>(f.funcIndex)];
        sp += (fn.frameSize + 15u) & ~15u;
        regStack.resize(f.regBase);
        frames.pop_back();
        if (!frames.empty()) {
            regs = regStack.data() + frames.back().regBase;
            curFp = frames.back().fp;
        }
    }

    [[noreturn]] void
    limitExceeded(uint64_t retired) const
    {
        fatal("instruction limit of %llu exceeded after retiring "
              "%llu instructions",
              static_cast<unsigned long long>(limits.maxInstructions),
              static_cast<unsigned long long>(retired));
    }

    const isa::MachineProgram &prog;
    const DecodedInst *dcode;
    Hooks &hooks;
    ExecLimits limits;
    MemoryImage mem;

    std::vector<Frame> frames;
    std::vector<uint64_t> regStack;
    std::vector<uint64_t> argBuffer;
    uint64_t *regs = nullptr; ///< current frame's register window
    uint64_t curFp = 0;       ///< current frame pointer
    uint64_t sp = 0;
    ExecStats stats;
};

template <class Hooks>
ExecStats
Engine<Hooks>::run()
{
    if (prog.entryFunc < 0)
        fatal("program '%s' has no main()", prog.name.c_str());
    const isa::MFunction &main_fn =
        prog.funcs[static_cast<size_t>(prog.entryFunc)];
    if (main_fn.numParams != 0)
        fatal("main() must not take parameters");

    sp = mem.stackTop();
    pushFrame(prog.entryFunc, -1, -1);

    // Hot loop state lives in locals so it can stay in registers across
    // the threaded dispatch; the retired count is flushed to stats on
    // every exit path. The hooks' checked-out Local lives here for the
    // same reason — its address never escapes the dispatch loop, so
    // the simulated program's memory writes can't force it out of
    // registers (fatal() exits skip leave(): the run is aborted and
    // the mode's results are never read).
    int pc = main_fn.entry;
    uint64_t icount = 0;
    const uint64_t maxInstr = limits.maxInstructions;
    const DecodedInst *d = nullptr;
    typename Hooks::Local hlocal = hooks.enter();

// The guard runs before the instruction is counted, observed or
// executed (matching the reference engine), so a limit-hit run reports
// exactly the retired count.
#define BSYN_FETCH()                                                     \
    do {                                                                 \
        if (icount >= maxInstr)                                          \
            limitExceeded(icount);                                       \
        ++icount;                                                        \
        d = &dcode[pc];                                                  \
        hooks.onInstruction(hlocal, pc);                                         \
    } while (0)

#if BSYN_COMPUTED_GOTO
    // One jump-table entry per Handler, in enum order.
    static const void *const jump[] = {
        &&L_Load32, &&L_Load64, &&L_StoreReg32, &&L_StoreReg64,
        &&L_StoreImm32, &&L_StoreImm64, &&L_CondBrNZ, &&L_CondBrZ,
        &&L_Jmp, &&L_Call, &&L_Ret, &&L_Print, &&L_Mov, &&L_MovImm,
        &&L_NegInt, &&L_NotInt, &&L_FNeg, &&L_CvtIFSigned,
        &&L_CvtIFUnsigned, &&L_CvtFISigned, &&L_CvtFIUnsigned, &&L_Add,
        &&L_Sub, &&L_Mul, &&L_DivS, &&L_DivU, &&L_RemS, &&L_RemU,
        &&L_And, &&L_Or, &&L_Xor, &&L_Shl, &&L_ShrS, &&L_ShrU,
        &&L_CmpEqInt, &&L_CmpNeInt, &&L_CmpLtS, &&L_CmpLeS, &&L_CmpGtS,
        &&L_CmpGeS, &&L_CmpLtU, &&L_CmpLeU, &&L_CmpGtU, &&L_CmpGeU,
        &&L_FAdd, &&L_FSub, &&L_FMul, &&L_FDiv, &&L_CmpEqF, &&L_CmpNeF,
        &&L_CmpLtF, &&L_CmpLeF, &&L_CmpGtF, &&L_CmpGeF,
        &&L_Load32FrameC, &&L_Load64FrameC, &&L_StoreReg32FrameC,
        &&L_StoreReg64FrameC, &&L_StoreImm32FrameC,
        &&L_StoreImm64FrameC, &&L_BrCmpEq, &&L_BrCmpNe, &&L_BrCmpLtS,
        &&L_BrCmpLeS, &&L_BrCmpGtS, &&L_BrCmpGeS, &&L_BrCmpLtU,
        &&L_BrCmpLeU, &&L_BrCmpGtU, &&L_BrCmpGeU, &&L_Trap,
    };
    static_assert(sizeof(jump) / sizeof(jump[0]) ==
                      static_cast<size_t>(Handler::Count),
                  "jump table out of sync with Handler");

#define BSYN_CASE(name) L_##name:
#define BSYN_NEXT()                                                      \
    do {                                                                 \
        BSYN_FETCH();                                                    \
        goto *jump[static_cast<size_t>(d->h)];                           \
    } while (0)

    BSYN_NEXT();
#else
#define BSYN_CASE(name) case Handler::name:
#define BSYN_NEXT() continue

    for (;;) {
        BSYN_FETCH();
        switch (d->h) {
#endif

    BSYN_CASE(Load32)
    {
        uint64_t addr = ea(*d);
        uint64_t v = mem.load32(addr);
        noteRead(hlocal, pc, addr, 4, v);
        regs[static_cast<size_t>(d->dst)] = v;
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(Load64)
    {
        uint64_t addr = ea(*d);
        uint64_t v = mem.load64(addr);
        noteRead(hlocal, pc, addr, 8, v);
        regs[static_cast<size_t>(d->dst)] = v;
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreReg32)
    {
        uint64_t addr = ea(*d);
        uint64_t v = regs[static_cast<size_t>(d->a)];
        mem.store32(addr, asU32(v));
        noteWrite(hlocal, pc, addr, 4, v);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreReg64)
    {
        uint64_t addr = ea(*d);
        uint64_t v = regs[static_cast<size_t>(d->a)];
        mem.store64(addr, v);
        noteWrite(hlocal, pc, addr, 8, v);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreImm32)
    {
        uint64_t addr = ea(*d);
        mem.store32(addr, asU32(d->imm));
        noteWrite(hlocal, pc, addr, 4, d->imm);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreImm64)
    {
        uint64_t addr = ea(*d);
        mem.store64(addr, d->imm);
        noteWrite(hlocal, pc, addr, 8, d->imm);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(CondBrNZ)
    {
        bool taken = asU32(regs[static_cast<size_t>(d->a)]) != 0;
        ++stats.branches;
        stats.takenBranches += taken;
        hooks.onBranch(hlocal, pc, taken);
        pc = taken ? d->target : pc + 1;
        BSYN_NEXT();
    }
    BSYN_CASE(CondBrZ)
    {
        bool taken = asU32(regs[static_cast<size_t>(d->a)]) == 0;
        ++stats.branches;
        stats.takenBranches += taken;
        hooks.onBranch(hlocal, pc, taken);
        pc = taken ? d->target : pc + 1;
        BSYN_NEXT();
    }
    BSYN_CASE(Jmp)
    {
        pc = d->target;
        BSYN_NEXT();
    }
    BSYN_CASE(Call)
    {
        ++stats.calls;
        const MInst &mi = prog.code[static_cast<size_t>(pc)];
        const isa::MFunction &callee =
            prog.funcs[static_cast<size_t>(d->target)];
        // Read args in the caller frame before pushing.
        argBuffer.clear();
        for (int a : mi.args)
            argBuffer.push_back(regs[static_cast<size_t>(a)]);
        pushFrame(d->target, pc + 1, d->dst);
        for (size_t i = 0; i < argBuffer.size(); ++i)
            regs[i] = argBuffer[i];
        pc = callee.entry;
        BSYN_NEXT();
    }
    BSYN_CASE(Ret)
    {
        uint64_t value =
            d->a >= 0 ? regs[static_cast<size_t>(d->a)] : 0;
        int ret_pc = frames.back().retPc;
        int ret_dst = frames.back().retDst;
        popFrame();
        if (frames.empty()) {
            stats.exitCode = asI32(value);
            goto done;
        }
        if (ret_dst >= 0)
            regs[static_cast<size_t>(ret_dst)] = value;
        pc = ret_pc;
        BSYN_NEXT();
    }
    BSYN_CASE(Print)
    {
        const MInst &mi = prog.code[static_cast<size_t>(pc)];
        argBuffer.clear();
        for (int a : mi.args)
            argBuffer.push_back(regs[static_cast<size_t>(a)]);
        stats.output +=
            formatPrintf(mi.text, argBuffer.data(), argBuffer.size());
        ++pc;
        BSYN_NEXT();
    }

// Compute handlers share the fused-load prologue, the operand fetch and
// the writeback/fused-store epilogue; only the core expression differs.
#define BSYN_COMPUTE1(expr)                                              \
    {                                                                    \
        uint64_t fused = 0;                                              \
        if (d->flags & DecodedInst::kFusedLoad)                          \
            fused = fusedLoad(hlocal, *d, pc);                                       \
        uint64_t va = fetchOperand(d->aMode, d->a, d->imm, fused, regs); \
        finishCompute(hlocal, *d, (expr), pc);                                       \
        ++pc;                                                            \
        BSYN_NEXT();                                                     \
    }
#define BSYN_COMPUTE2(expr)                                              \
    {                                                                    \
        uint64_t fused = 0;                                              \
        if (d->flags & DecodedInst::kFusedLoad)                          \
            fused = fusedLoad(hlocal, *d, pc);                                       \
        uint64_t va = fetchOperand(d->aMode, d->a, d->imm, fused, regs); \
        uint64_t vb = fetchOperand(d->bMode, d->b, d->imm, fused, regs); \
        finishCompute(hlocal, *d, (expr), pc);                                       \
        ++pc;                                                            \
        BSYN_NEXT();                                                     \
    }

    BSYN_CASE(Mov)
    BSYN_COMPUTE1(va)
    BSYN_CASE(MovImm)
    {
        uint64_t fused = 0;
        if (d->flags & DecodedInst::kFusedLoad)
            fused = fusedLoad(hlocal, *d, pc);
        (void)fused;
        finishCompute(hlocal, *d, d->imm, pc);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(NegInt)
    BSYN_COMPUTE1(asU32(static_cast<uint64_t>(
        -static_cast<int64_t>(asI32(va)))))
    BSYN_CASE(NotInt)
    BSYN_COMPUTE1(asU32(~asU32(va)))
    BSYN_CASE(FNeg)
    BSYN_COMPUTE1(f64Bits(-asF64(va)))
    BSYN_CASE(CvtIFSigned)
    BSYN_COMPUTE1(f64Bits(static_cast<double>(asI32(va))))
    BSYN_CASE(CvtIFUnsigned)
    BSYN_COMPUTE1(f64Bits(static_cast<double>(asU32(va))))
    BSYN_CASE(CvtFISigned)
    {
        uint64_t fused = 0;
        if (d->flags & DecodedInst::kFusedLoad)
            fused = fusedLoad(hlocal, *d, pc);
        uint64_t va = fetchOperand(d->aMode, d->a, d->imm, fused, regs);
        double dv = asF64(va);
        if (std::isnan(dv))
            dv = 0.0;
        double clamped =
            dv < -2147483648.0
                ? -2147483648.0
                : (dv > 2147483647.0 ? 2147483647.0 : dv);
        finishCompute(hlocal, *d,
                      asU32(static_cast<uint64_t>(
                          static_cast<int64_t>(clamped))),
                      pc);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(CvtFIUnsigned)
    {
        uint64_t fused = 0;
        if (d->flags & DecodedInst::kFusedLoad)
            fused = fusedLoad(hlocal, *d, pc);
        uint64_t va = fetchOperand(d->aMode, d->a, d->imm, fused, regs);
        double dv = asF64(va);
        if (std::isnan(dv))
            dv = 0.0;
        double clamped =
            dv < 0 ? 0 : (dv > 4294967295.0 ? 4294967295.0 : dv);
        finishCompute(hlocal, *d, asU32(static_cast<uint64_t>(clamped)),
                      pc);
        ++pc;
        BSYN_NEXT();
    }

    BSYN_CASE(Add)
    BSYN_COMPUTE2(static_cast<uint32_t>(asU32(va) + asU32(vb)))
    BSYN_CASE(Sub)
    BSYN_COMPUTE2(static_cast<uint32_t>(asU32(va) - asU32(vb)))
    BSYN_CASE(Mul)
    BSYN_COMPUTE2(static_cast<uint32_t>(asU32(va) * asU32(vb)))
    BSYN_CASE(DivS)
    BSYN_COMPUTE2(asU32(vb) == 0
                      ? 0
                      : (asI32(va) == INT32_MIN && asI32(vb) == -1
                             ? static_cast<uint32_t>(INT32_MIN)
                             : static_cast<uint32_t>(asI32(va) /
                                                     asI32(vb))))
    BSYN_CASE(DivU)
    BSYN_COMPUTE2(asU32(vb) == 0 ? 0 : asU32(va) / asU32(vb))
    BSYN_CASE(RemS)
    BSYN_COMPUTE2(asU32(vb) == 0
                      ? 0
                      : (asI32(va) == INT32_MIN && asI32(vb) == -1
                             ? 0
                             : static_cast<uint32_t>(asI32(va) %
                                                     asI32(vb))))
    BSYN_CASE(RemU)
    BSYN_COMPUTE2(asU32(vb) == 0 ? 0 : asU32(va) % asU32(vb))
    BSYN_CASE(And)
    BSYN_COMPUTE2(asU32(va) & asU32(vb))
    BSYN_CASE(Or)
    BSYN_COMPUTE2(asU32(va) | asU32(vb))
    BSYN_CASE(Xor)
    BSYN_COMPUTE2(asU32(va) ^ asU32(vb))
    BSYN_CASE(Shl)
    BSYN_COMPUTE2(static_cast<uint32_t>(asU32(va) << (asU32(vb) & 31)))
    BSYN_CASE(ShrS)
    BSYN_COMPUTE2(static_cast<uint32_t>(asI32(va) >> (asU32(vb) & 31)))
    BSYN_CASE(ShrU)
    BSYN_COMPUTE2(asU32(va) >> (asU32(vb) & 31))
    BSYN_CASE(CmpEqInt)
    BSYN_COMPUTE2(static_cast<uint64_t>(asU32(va) == asU32(vb)))
    BSYN_CASE(CmpNeInt)
    BSYN_COMPUTE2(static_cast<uint64_t>(asU32(va) != asU32(vb)))
    BSYN_CASE(CmpLtS)
    BSYN_COMPUTE2(static_cast<uint64_t>(asI32(va) < asI32(vb)))
    BSYN_CASE(CmpLeS)
    BSYN_COMPUTE2(static_cast<uint64_t>(asI32(va) <= asI32(vb)))
    BSYN_CASE(CmpGtS)
    BSYN_COMPUTE2(static_cast<uint64_t>(asI32(va) > asI32(vb)))
    BSYN_CASE(CmpGeS)
    BSYN_COMPUTE2(static_cast<uint64_t>(asI32(va) >= asI32(vb)))
    BSYN_CASE(CmpLtU)
    BSYN_COMPUTE2(static_cast<uint64_t>(asU32(va) < asU32(vb)))
    BSYN_CASE(CmpLeU)
    BSYN_COMPUTE2(static_cast<uint64_t>(asU32(va) <= asU32(vb)))
    BSYN_CASE(CmpGtU)
    BSYN_COMPUTE2(static_cast<uint64_t>(asU32(va) > asU32(vb)))
    BSYN_CASE(CmpGeU)
    BSYN_COMPUTE2(static_cast<uint64_t>(asU32(va) >= asU32(vb)))

    BSYN_CASE(FAdd)
    BSYN_COMPUTE2(f64Bits(asF64(va) + asF64(vb)))
    BSYN_CASE(FSub)
    BSYN_COMPUTE2(f64Bits(asF64(va) - asF64(vb)))
    BSYN_CASE(FMul)
    BSYN_COMPUTE2(f64Bits(asF64(va) * asF64(vb)))
    BSYN_CASE(FDiv)
    BSYN_COMPUTE2(f64Bits(asF64(vb) == 0.0 ? 0.0
                                           : asF64(va) / asF64(vb)))
    BSYN_CASE(CmpEqF)
    BSYN_COMPUTE2(static_cast<uint64_t>(asF64(va) == asF64(vb)))
    BSYN_CASE(CmpNeF)
    BSYN_COMPUTE2(static_cast<uint64_t>(asF64(va) != asF64(vb)))
    BSYN_CASE(CmpLtF)
    BSYN_COMPUTE2(static_cast<uint64_t>(asF64(va) < asF64(vb)))
    BSYN_CASE(CmpLeF)
    BSYN_COMPUTE2(static_cast<uint64_t>(asF64(va) <= asF64(vb)))
    BSYN_CASE(CmpGtF)
    BSYN_COMPUTE2(static_cast<uint64_t>(asF64(va) > asF64(vb)))
    BSYN_CASE(CmpGeF)
    BSYN_COMPUTE2(static_cast<uint64_t>(asF64(va) >= asF64(vb)))

// Frame-relative constant-offset memory: the generic ea()'s
// base-select and index-scale branches are statically resolved away.
#define BSYN_FRAME_EA()                                                  \
    (curFp + static_cast<uint64_t>(static_cast<int64_t>(d->memOffset)))

    BSYN_CASE(Load32FrameC)
    {
        uint64_t addr = BSYN_FRAME_EA();
        uint64_t v = mem.load32(addr);
        noteRead(hlocal, pc, addr, 4, v);
        regs[static_cast<size_t>(d->dst)] = v;
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(Load64FrameC)
    {
        uint64_t addr = BSYN_FRAME_EA();
        uint64_t v = mem.load64(addr);
        noteRead(hlocal, pc, addr, 8, v);
        regs[static_cast<size_t>(d->dst)] = v;
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreReg32FrameC)
    {
        uint64_t addr = BSYN_FRAME_EA();
        uint64_t v = regs[static_cast<size_t>(d->a)];
        mem.store32(addr, asU32(v));
        noteWrite(hlocal, pc, addr, 4, v);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreReg64FrameC)
    {
        uint64_t addr = BSYN_FRAME_EA();
        uint64_t v = regs[static_cast<size_t>(d->a)];
        mem.store64(addr, v);
        noteWrite(hlocal, pc, addr, 8, v);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreImm32FrameC)
    {
        uint64_t addr = BSYN_FRAME_EA();
        mem.store32(addr, asU32(d->imm));
        noteWrite(hlocal, pc, addr, 4, d->imm);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreImm64FrameC)
    {
        uint64_t addr = BSYN_FRAME_EA();
        mem.store64(addr, d->imm);
        noteWrite(hlocal, pc, addr, 8, d->imm);
        ++pc;
        BSYN_NEXT();
    }

// Fused integer compare + conditional branch: one dispatch, both
// instructions' accounting. The block between the compare's writeback
// and the branch condition replays BSYN_FETCH for pc+1 minus the
// decode load (the branch target and sense live in the fused decode),
// so retire counts, the limit guard and every hook fire exactly as on
// the unfused path.
#define BSYN_BRCMP(expr)                                                 \
    {                                                                    \
        uint64_t va = fetchOperand(d->aMode, d->a, d->imm, 0, regs);     \
        uint64_t vb = fetchOperand(d->bMode, d->b, d->imm, 0, regs);     \
        uint64_t res = (expr);                                           \
        regs[static_cast<size_t>(d->dst)] = res;                         \
        if (icount >= maxInstr)                                          \
            limitExceeded(icount);                                       \
        ++icount;                                                        \
        ++pc;                                                            \
        hooks.onInstruction(hlocal, pc);                                         \
        bool taken =                                                     \
            (res != 0) != ((d->flags & DecodedInst::kBrIfZero) != 0);    \
        ++stats.branches;                                                \
        stats.takenBranches += taken;                                    \
        hooks.onBranch(hlocal, pc, taken);                                       \
        pc = taken ? d->target : pc + 1;                                 \
        BSYN_NEXT();                                                     \
    }

    BSYN_CASE(BrCmpEq)
    BSYN_BRCMP(static_cast<uint64_t>(asU32(va) == asU32(vb)))
    BSYN_CASE(BrCmpNe)
    BSYN_BRCMP(static_cast<uint64_t>(asU32(va) != asU32(vb)))
    BSYN_CASE(BrCmpLtS)
    BSYN_BRCMP(static_cast<uint64_t>(asI32(va) < asI32(vb)))
    BSYN_CASE(BrCmpLeS)
    BSYN_BRCMP(static_cast<uint64_t>(asI32(va) <= asI32(vb)))
    BSYN_CASE(BrCmpGtS)
    BSYN_BRCMP(static_cast<uint64_t>(asI32(va) > asI32(vb)))
    BSYN_CASE(BrCmpGeS)
    BSYN_BRCMP(static_cast<uint64_t>(asI32(va) >= asI32(vb)))
    BSYN_CASE(BrCmpLtU)
    BSYN_BRCMP(static_cast<uint64_t>(asU32(va) < asU32(vb)))
    BSYN_CASE(BrCmpLeU)
    BSYN_BRCMP(static_cast<uint64_t>(asU32(va) <= asU32(vb)))
    BSYN_CASE(BrCmpGtU)
    BSYN_BRCMP(static_cast<uint64_t>(asU32(va) > asU32(vb)))
    BSYN_CASE(BrCmpGeU)
    BSYN_BRCMP(static_cast<uint64_t>(asU32(va) >= asU32(vb)))

    BSYN_CASE(Trap)
    {
        const MInst &mi = prog.code[static_cast<size_t>(pc)];
        panic("predecoded engine: invalid compute %s at pc %d",
              ir::opcodeName(mi.op), pc);
    }

#if !BSYN_COMPUTED_GOTO
        }
    }
#endif

#undef BSYN_COMPUTE1
#undef BSYN_COMPUTE2
#undef BSYN_BRCMP
#undef BSYN_FRAME_EA
#undef BSYN_CASE
#undef BSYN_NEXT
#undef BSYN_FETCH

done:
    hooks.leave(hlocal);
    stats.instructions = icount;
    return std::move(stats);
}

/** The one profiling loop: aggregate counters into @p out, slice
 *  checkpoints wherever @p rec has an output. */
ExecStats
runProfile(const DecodedProgram &prog, const CacheConfig &profiling_cache,
           InstrumentedCounters &out, SliceRecorder &rec,
           const ExecLimits &limits)
{
    out.execCount.assign(prog.size(), 0);
    out.memAccesses.assign(prog.size(), 0);
    out.memMisses.assign(prog.size(), 0);
    out.branch.assign(prog.size(), InstrumentedCounters::Branch());
    ProfileHooks hooks{out, Cache(profiling_cache), rec};
    ExecStats stats = Engine<ProfileHooks>(prog, hooks, limits).run();
    rec.finish(out);
    return stats;
}

} // namespace

ExecStats
execute(const DecodedProgram &prog, ExecObserver *observer,
        const ExecLimits &limits)
{
    if (observer) {
        ObserverHooks hooks{prog.program(), *observer};
        return Engine<ObserverHooks>(prog, hooks, limits).run();
    }
    NullHooks hooks;
    return Engine<NullHooks>(prog, hooks, limits).run();
}

SliceRecorder::SliceRecorder(const SliceOptions &opts, SlicedCounters *out)
    : out_(opts.baseSliceLength > 0 ? out : nullptr),
      sliceLen_(opts.baseSliceLength),
      maxSlices_(std::max(2u, opts.maxSlices & ~1u))
{
    if (out_) {
        out_->snapshots.clear();
        out_->sliceLength = sliceLen_;
        nextBoundary_ = sliceLen_;
    } else if (out) {
        out->snapshots.clear();
        out->sliceLength = 0;
    }
}

void
SliceRecorder::cut(const InstrumentedCounters &c)
{
    out_->snapshots.push_back({retired_, c});
    if (out_->snapshots.size() >= maxSlices_) {
        // Coalesce adjacent slice pairs: boundary k*sliceLen survives
        // iff k is even, which is exactly every second snapshot. The
        // interval doubles, so the stream always describes the whole
        // run in at most maxSlices slices of a power-of-two multiple
        // of the base length.
        std::vector<CounterSlice> kept;
        kept.reserve(out_->snapshots.size() / 2);
        for (size_t i = 1; i < out_->snapshots.size(); i += 2)
            kept.push_back(std::move(out_->snapshots[i]));
        out_->snapshots = std::move(kept);
        sliceLen_ *= 2;
        out_->sliceLength = sliceLen_;
    }
    nextBoundary_ = retired_ + sliceLen_;
}

void
SliceRecorder::finish(const InstrumentedCounters &c)
{
    if (!out_)
        return;
    if (out_->snapshots.empty() ||
        out_->snapshots.back().retired < retired_)
        out_->snapshots.push_back({retired_, c});
    out_->sliceLength = sliceLen_;
}

ExecStats
executeInstrumented(const DecodedProgram &prog,
                    const CacheConfig &profiling_cache,
                    InstrumentedCounters &out, const ExecLimits &limits)
{
    SliceRecorder rec(SliceOptions{}, nullptr);
    return runProfile(prog, profiling_cache, out, rec, limits);
}

ExecStats
executeInstrumentedSliced(const DecodedProgram &prog,
                          const CacheConfig &profiling_cache,
                          InstrumentedCounters &out,
                          SlicedCounters &slices,
                          const SliceOptions &slice_opts,
                          const ExecLimits &limits)
{
    SliceRecorder rec(slice_opts, &slices);
    return runProfile(prog, profiling_cache, out, rec, limits);
}

ExecStats
executeTimedSpecialized(const DecodedProgram &prog,
                        const TimedProgram &timed, TimedCore &core,
                        const ExecLimits &limits)
{
    BSYN_ASSERT(timed.size() == prog.size(),
                "TimedProgram prepared from a different program "
                "(%zu PCs vs %zu)",
                timed.size(), prog.size());
    SpecTimingHooks hooks{core, timed.data()};
    return Engine<SpecTimingHooks>(prog, hooks, limits).run();
}

} // namespace bsyn::sim

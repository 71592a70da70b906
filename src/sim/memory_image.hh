/**
 * @file
 * Byte-addressed flat memory for program execution: a data segment
 * holding the module's globals plus a downward-growing stack for
 * function frames. Real byte addresses flow to the cache simulator, so
 * stride/locality behaviour is faithful to a 32-bit machine with 4-byte
 * ints (the layout the paper's Table I assumes).
 */

#ifndef BSYN_SIM_MEMORY_IMAGE_HH
#define BSYN_SIM_MEMORY_IMAGE_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "ir/module.hh"

namespace bsyn::sim
{

/** The executable address space of one program instance. */
class MemoryImage
{
  public:
    /**
     * Lay out @p globals starting at dataBase and reserve 1 MiB of stack
     * at the top of the address space.
     */
    explicit MemoryImage(const std::vector<ir::Global> &globals);

    /** Byte address of global symbol @p sym. */
    uint64_t globalAddress(int sym) const
    {
        return globalAddr[static_cast<size_t>(sym)];
    }

    /** Initial stack pointer (top of memory, 16-byte aligned). */
    uint64_t stackTop() const { return stackTop_; }

    /** Lowest valid stack address (for overflow detection). */
    uint64_t stackLimit() const { return stackLimit_; }

    uint64_t size() const { return bytes.size() + dataBase; }

    /** Typed accessors; fatal() on out-of-range addresses. Inline —
     *  they sit on the interpreter's per-memory-access hot path. */
    uint32_t
    load32(uint64_t addr) const
    {
        uint32_t v;
        std::memcpy(&v, ptr(addr, 4), 4);
        return v;
    }

    void
    store32(uint64_t addr, uint32_t value)
    {
        std::memcpy(ptr(addr, 4), &value, 4);
    }

    uint64_t
    load64(uint64_t addr) const
    {
        uint64_t v;
        std::memcpy(&v, ptr(addr, 8), 8);
        return v;
    }

    void
    store64(uint64_t addr, uint64_t value)
    {
        std::memcpy(ptr(addr, 8), &value, 8);
    }

    /** Reset globals to their initial images and zero everything else. */
    void reset(const std::vector<ir::Global> &globals);

    /** Base address of the data segment. */
    static constexpr uint64_t dataBase = 0x1000;

  private:
    void layout(const std::vector<ir::Global> &globals);
    void initGlobals(const std::vector<ir::Global> &globals);

    /** Cold failure path, outlined so the bounds check stays cheap. */
    [[noreturn]] void outOfRange(uint64_t addr, uint32_t size) const;

    // The bounds check subtracts rather than adds so a computed address
    // near 2^64 (a wild negative index wrapped through ea()) cannot
    // overflow `addr + size` past the check and yield a wild pointer.
    const uint8_t *
    ptr(uint64_t addr, uint32_t size) const
    {
        if (addr < dataBase || addr - dataBase > bytes.size() - size)
            outOfRange(addr, size);
        return bytes.data() + (addr - dataBase);
    }

    uint8_t *
    ptr(uint64_t addr, uint32_t size)
    {
        if (addr < dataBase || addr - dataBase > bytes.size() - size)
            outOfRange(addr, size);
        return bytes.data() + (addr - dataBase);
    }

    std::vector<uint8_t> bytes; ///< backing store (starts at dataBase)
    std::vector<uint64_t> globalAddr;
    uint64_t stackTop_ = 0;
    uint64_t stackLimit_ = 0;
};

} // namespace bsyn::sim

#endif // BSYN_SIM_MEMORY_IMAGE_HH

#include "sim/memory_image.hh"

#include <cstring>

#include "support/error.hh"

namespace bsyn::sim
{

namespace
{

constexpr uint64_t kStackBytes = 1u << 20;

} // namespace

MemoryImage::MemoryImage(const std::vector<ir::Global> &globals)
{
    layout(globals);
    // Data segment ends at the current high-water mark; the stack sits
    // above it with a guard gap.
    uint64_t data_end = dataBase + bytes.size();
    uint64_t guard = 4096;
    stackLimit_ = (data_end + guard + 15) & ~uint64_t(15);
    stackTop_ = stackLimit_ + ((kStackBytes + 15) & ~uint64_t(15));
    bytes.resize(stackTop_ - dataBase, 0);
    initGlobals(globals);
}

void
MemoryImage::layout(const std::vector<ir::Global> &globals)
{
    uint64_t cursor = 0; // offset from dataBase
    globalAddr.clear();
    for (const auto &g : globals) {
        uint64_t align = ir::typeSize(g.elemType);
        cursor = (cursor + align - 1) / align * align;
        globalAddr.push_back(dataBase + cursor);
        cursor += g.sizeBytes();
    }
    // Round the data segment to a cache-line multiple so the stack does
    // not share a line with the last global.
    cursor = (cursor + 63) & ~uint64_t(63);
    bytes.assign(cursor, 0);
}

void
MemoryImage::initGlobals(const std::vector<ir::Global> &globals)
{
    for (size_t i = 0; i < globals.size(); ++i) {
        const ir::Global &g = globals[i];
        if (g.init.empty())
            continue;
        uint64_t addr = globalAddr[i];
        uint32_t esz = ir::typeSize(g.elemType);
        for (size_t e = 0; e < g.init.size() && e < g.elems; ++e) {
            if (esz == 4)
                store32(addr + e * 4, static_cast<uint32_t>(g.init[e]));
            else
                store64(addr + e * 8, g.init[e]);
        }
    }
}

void
MemoryImage::reset(const std::vector<ir::Global> &globals)
{
    std::fill(bytes.begin(), bytes.end(), 0);
    initGlobals(globals);
}

void
MemoryImage::outOfRange(uint64_t addr, uint32_t size) const
{
    fatal("memory access out of range: address 0x%llx size %u",
          static_cast<unsigned long long>(addr), size);
}

} // namespace bsyn::sim

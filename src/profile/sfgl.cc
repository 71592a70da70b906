#include "profile/sfgl.hh"

#include <cmath>

#include "support/error.hh"

namespace bsyn::profile
{

size_t
SfglBlock::bodySize() const
{
    size_t n = 0;
    for (const auto &d : code)
        if (!d.isControl)
            ++n;
    return n;
}

uint64_t
Sfgl::dynamicBodyInstructions() const
{
    uint64_t total = 0;
    for (const auto &b : blocks)
        total += b.execCount * b.bodySize();
    return total;
}

uint64_t
Sfgl::dynamicInstructions() const
{
    uint64_t total = 0;
    for (const auto &b : blocks)
        total += b.execCount * b.code.size();
    return total;
}

namespace
{

void
writeDescriptor(JsonWriter &w, const InstrDescriptor &d)
{
    w.beginArray();
    w.value(static_cast<int>(d.op));
    w.value(static_cast<int>(d.type));
    w.value(static_cast<int>(d.cls));
    int flags = (d.readsMem ? 1 : 0) | (d.writesMem ? 2 : 0) |
                (d.isControl ? 4 : 0);
    w.value(flags);
    w.value(d.missClass);
    w.value(d.branchExecutions);
    w.value(d.takenRate);
    w.value(d.transitionRate);
    w.endArray();
}

InstrDescriptor
readDescriptor(JsonReader &r)
{
    // [op, type, cls, flags, missClass] then, since v2, the per-branch
    // [branchExecutions, takenRate, transitionRate]. Pre-v2 profiles
    // (5-element descriptors) load with those fields at their
    // defaults, as does any array too short to hold all three.
    double v[8] = {};
    size_t n = 0;
    r.beginArray();
    for (; r.nextItem(); ++n) {
        if (n < 8)
            v[n] = r.number();
        else
            r.skip();
    }
    if (n < 5)
        fatal("json: instruction descriptor has %zu fields, expected 5 "
              "or more",
              n);
    InstrDescriptor d;
    d.op = static_cast<ir::Opcode>(std::llround(v[0]));
    d.type = static_cast<ir::Type>(std::llround(v[1]));
    d.cls = static_cast<isa::MClass>(std::llround(v[2]));
    int flags = static_cast<int>(std::llround(v[3]));
    d.readsMem = flags & 1;
    d.writesMem = flags & 2;
    d.isControl = flags & 4;
    d.missClass = static_cast<int>(std::llround(v[4]));
    if (n > 7) {
        d.branchExecutions = static_cast<uint64_t>(v[5]);
        d.takenRate = v[6];
        d.transitionRate = v[7];
    }
    return d;
}

SfglEdge
readEdge(JsonReader &r)
{
    // [to, count]; trailing elements are ignored.
    SfglEdge e;
    size_t n = 0;
    r.beginArray();
    for (; r.nextItem(); ++n) {
        if (n == 0)
            e.to = static_cast<int>(r.integer());
        else if (n == 1)
            e.count = static_cast<uint64_t>(r.number());
        else
            r.skip();
    }
    if (n < 2)
        fatal("json: SFGL edge has %zu fields, expected 2", n);
    return e;
}

const char *const kBlockKeys[] = {"id", "func", "irBlock", "exec",
                                  "code", "succs", "term", "takenRate",
                                  "transitionRate", "easy", "loop"};

SfglBlock
readBlock(JsonReader &r)
{
    SfglBlock b;
    JsonFields keys(kBlockKeys);
    std::string_view k;
    r.beginObject();
    while (r.nextKey(k)) {
        switch (keys.match(k)) {
          case 0: b.id = static_cast<int>(r.integer()); break;
          case 1: b.funcId = static_cast<int>(r.integer()); break;
          case 2: b.irBlockId = static_cast<int>(r.integer()); break;
          case 3: b.execCount = static_cast<uint64_t>(r.number()); break;
          case 4:
            b.code.clear();
            r.beginArray();
            while (r.nextItem())
                b.code.push_back(readDescriptor(r));
            break;
          case 5:
            b.succs.clear();
            r.beginArray();
            while (r.nextItem())
                b.succs.push_back(readEdge(r));
            break;
          case 6: b.term = static_cast<SfglTerm>(r.integer()); break;
          case 7: b.takenRate = r.number(); break;
          case 8: b.transitionRate = r.number(); break;
          case 9: b.easyBranch = r.boolean(); break;
          case 10: b.loopId = static_cast<int>(r.integer()); break;
          default: r.skip();
        }
    }
    keys.require(11);
    return b;
}

const char *const kLoopKeys[] = {"id", "header", "blocks", "parent",
                                 "depth", "entries", "avgIterations"};

SfglLoop
readLoop(JsonReader &r)
{
    SfglLoop l;
    JsonFields keys(kLoopKeys);
    std::string_view k;
    r.beginObject();
    while (r.nextKey(k)) {
        switch (keys.match(k)) {
          case 0: l.id = static_cast<int>(r.integer()); break;
          case 1: l.header = static_cast<int>(r.integer()); break;
          case 2:
            l.blocks.clear();
            r.beginArray();
            while (r.nextItem())
                l.blocks.push_back(static_cast<int>(r.integer()));
            break;
          case 3: l.parent = static_cast<int>(r.integer()); break;
          case 4: l.depth = static_cast<int>(r.integer()); break;
          case 5: l.entries = static_cast<uint64_t>(r.number()); break;
          case 6: l.avgIterations = r.number(); break;
          default: r.skip();
        }
    }
    keys.require(7);
    return l;
}

const char *const kSfglKeys[] = {"blocks", "loops", "funcNames"};

} // namespace

void
Sfgl::write(JsonWriter &w) const
{
    w.beginObject();

    w.key("blocks");
    w.beginArray();
    for (const auto &b : blocks) {
        w.beginObject();
        w.field("id", b.id);
        w.field("func", b.funcId);
        w.field("irBlock", b.irBlockId);
        w.field("exec", b.execCount);
        w.key("code");
        w.beginArray();
        for (const auto &d : b.code)
            writeDescriptor(w, d);
        w.endArray();
        w.key("succs");
        w.beginArray();
        for (const auto &e : b.succs) {
            w.beginArray();
            w.value(e.to);
            w.value(e.count);
            w.endArray();
        }
        w.endArray();
        w.field("term", static_cast<int>(b.term));
        w.field("takenRate", b.takenRate);
        w.field("transitionRate", b.transitionRate);
        w.field("easy", b.easyBranch);
        w.field("loop", b.loopId);
        w.endObject();
    }
    w.endArray();

    w.key("loops");
    w.beginArray();
    for (const auto &l : loops) {
        w.beginObject();
        w.field("id", l.id);
        w.field("header", l.header);
        w.key("blocks");
        w.beginArray();
        for (int b : l.blocks)
            w.value(b);
        w.endArray();
        w.field("parent", l.parent);
        w.field("depth", l.depth);
        w.field("entries", l.entries);
        w.field("avgIterations", l.avgIterations);
        w.endObject();
    }
    w.endArray();

    w.key("funcNames");
    w.beginArray();
    for (const auto &n : funcNames)
        w.value(n);
    w.endArray();

    w.endObject();
}

Sfgl
Sfgl::read(JsonReader &r)
{
    Sfgl g;
    JsonFields keys(kSfglKeys);
    std::string_view k;
    r.beginObject();
    while (r.nextKey(k)) {
        switch (keys.match(k)) {
          case 0:
            g.blocks.clear();
            r.beginArray();
            while (r.nextItem())
                g.blocks.push_back(readBlock(r));
            break;
          case 1:
            g.loops.clear();
            r.beginArray();
            while (r.nextItem())
                g.loops.push_back(readLoop(r));
            break;
          case 2:
            g.funcNames.clear();
            r.beginArray();
            while (r.nextItem())
                g.funcNames.push_back(r.string());
            break;
          default: r.skip();
        }
    }
    keys.require(3);
    return g;
}

} // namespace bsyn::profile

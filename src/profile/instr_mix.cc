#include "profile/instr_mix.hh"

namespace bsyn::profile
{

using isa::MClass;

uint64_t
InstrMix::total() const
{
    uint64_t t = 0;
    for (uint64_t c : counts)
        t += c;
    return t;
}

double
InstrMix::fraction(MClass cls) const
{
    uint64_t t = total();
    return t ? double(count(cls)) / double(t) : 0.0;
}

double
InstrMix::loadFraction() const
{
    return fraction(MClass::Load);
}

double
InstrMix::storeFraction() const
{
    return fraction(MClass::Store);
}

double
InstrMix::branchFraction() const
{
    return fraction(MClass::Branch) + fraction(MClass::Jump);
}

double
InstrMix::otherFraction() const
{
    return 1.0 - loadFraction() - storeFraction() - branchFraction();
}

double
InstrMix::fpFraction() const
{
    return fraction(MClass::FpAlu) + fraction(MClass::FpMul) +
           fraction(MClass::FpDiv);
}

void
InstrMix::merge(const InstrMix &other)
{
    for (size_t i = 0; i < numClasses; ++i)
        counts[i] += other.counts[i];
}

void
InstrMix::write(JsonWriter &w) const
{
    w.beginArray();
    for (uint64_t c : counts)
        w.value(c);
    w.endArray();
}

InstrMix
InstrMix::read(JsonReader &r)
{
    InstrMix mix;
    size_t i = 0;
    r.beginArray();
    for (; r.nextItem(); ++i) {
        // A shorter array leaves the remaining classes at zero and
        // classes beyond numClasses are ignored.
        if (i < numClasses)
            mix.counts[i] = static_cast<uint64_t>(r.number());
        else
            r.skip();
    }
    return mix;
}

} // namespace bsyn::profile

#include "profile/statistical_profile.hh"

#include "support/string_util.hh"

namespace bsyn::profile
{

namespace
{

const char *const kPhaseKeys[] = {"dynamicInstructions", "firstSlice",
                                  "sliceCount", "mix", "sfgl"};

/** Required members first: the last three are optional (v1/v2 files
 *  predate the slice stream). */
const char *const kProfileKeys[] = {"workload", "dynamicInstructions",
                                    "mix", "sfgl", "sliceLength",
                                    "sliceCount", "phases"};

} // namespace

void
PhaseProfile::write(JsonWriter &w) const
{
    w.beginObject();
    w.field("dynamicInstructions", dynamicInstructions);
    w.field("firstSlice", firstSlice);
    w.field("sliceCount", sliceCount);
    w.key("mix");
    mix.write(w);
    w.key("sfgl");
    sfgl.write(w);
    w.endObject();
}

PhaseProfile
PhaseProfile::read(JsonReader &r)
{
    PhaseProfile p;
    JsonFields keys(kPhaseKeys);
    std::string_view k;
    r.beginObject();
    while (r.nextKey(k)) {
        switch (keys.match(k)) {
          case 0:
            p.dynamicInstructions = static_cast<uint64_t>(r.number());
            break;
          case 1: p.firstSlice = static_cast<uint64_t>(r.number()); break;
          case 2: p.sliceCount = static_cast<uint64_t>(r.number()); break;
          case 3: p.mix = InstrMix::read(r); break;
          case 4: p.sfgl = Sfgl::read(r); break;
          default: r.skip();
        }
    }
    keys.require(5);
    return p;
}

std::string
StatisticalProfile::serialize() const
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.field("version", 3);
    w.field("workload", workloadName);
    w.field("dynamicInstructions", dynamicInstructions);
    w.key("mix");
    mix.write(w);
    w.key("sfgl");
    sfgl.write(w);
    w.field("sliceLength", sliceLength);
    w.field("sliceCount", sliceCount);
    // A single phase always mirrors the aggregate, so only genuinely
    // multi-phase profiles pay for the phase list on disk; loading
    // materializes the implicit phase back (see deserialize).
    if (phases.size() > 1) {
        w.key("phases");
        w.beginArray();
        for (const auto &p : phases)
            p.write(w);
        w.endArray();
    }
    w.endObject();
    return out;
}

StatisticalProfile
StatisticalProfile::deserialize(const std::string &text)
{
    StatisticalProfile p;
    JsonReader r(text);
    JsonFields keys(kProfileKeys);
    std::string_view k;
    r.beginObject();
    while (r.nextKey(k)) {
        switch (keys.match(k)) {
          case 0: p.workloadName = r.string(); break;
          case 1:
            p.dynamicInstructions = static_cast<uint64_t>(r.number());
            break;
          case 2: p.mix = InstrMix::read(r); break;
          case 3: p.sfgl = Sfgl::read(r); break;
          case 4: p.sliceLength = static_cast<uint64_t>(r.number()); break;
          case 5: p.sliceCount = static_cast<uint64_t>(r.number()); break;
          case 6:
            p.phases.clear();
            r.beginArray();
            while (r.nextItem())
                p.phases.push_back(PhaseProfile::read(r));
            break;
          default: r.skip(); // "version" and unknown members
        }
    }
    r.finish();
    keys.require(4);
    // v1/v2 files predate the version field and the slice stream; they
    // load as single-phase v3 profiles with identical aggregates.
    if (p.phases.empty()) {
        PhaseProfile only;
        only.dynamicInstructions = p.dynamicInstructions;
        only.firstSlice = 0;
        only.sliceCount = p.sliceCount ? p.sliceCount : 1;
        only.mix = p.mix;
        only.sfgl = p.sfgl;
        p.phases.push_back(std::move(only));
    }
    return p;
}

void
StatisticalProfile::saveTo(const std::string &path) const
{
    writeFile(path, serialize());
}

StatisticalProfile
StatisticalProfile::loadFrom(const std::string &path)
{
    return deserialize(readFile(path));
}

} // namespace bsyn::profile

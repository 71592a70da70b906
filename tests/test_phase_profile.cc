/** @file Tests for the v3 time-sliced/phase profile model: loader
 *  compatibility with checked-in v1, v2 and v3 profile JSON (v1/v2 load
 *  as single-phase v3 with identical aggregates; v3 re-serializes byte
 *  for byte), v3 serialization shape and round-trips, the streaming
 *  codec checked against the Json DOM on the suite and the generator
 *  presets (any key order, unknown keys, missing required keys), phase detection matching the phase_shift
 *  generator's configured phase count, and phase-aware synthesis
 *  (single-phase clones byte-identical to the aggregate-only path,
 *  multi-phase clones stitched from per-phase skeletons). */

#include <gtest/gtest.h>

#include <functional>

#include "gen/registry.hh"
#include "lang/frontend.hh"
#include "profile/profiler.hh"
#include "profile/statistical_profile.hh"
#include "support/error.hh"
#include "support/string_util.hh"
#include "synth/synthesizer.hh"
#include "workloads/suite.hh"
#include "workloads/workload.hh"

namespace bsyn
{
namespace
{

std::string
fixturePath(const char *file)
{
    return std::string(BSYN_TEST_DATA_DIR) + "/" + file;
}

/** A loop-heavy single-phase kernel (steady behaviour throughout). */
const char *kSinglePhaseSource = R"(
int main() {
  int A[64];
  int i;
  int j;
  int acc;
  acc = 0;
  for (i = 0; i < 64; i = i + 1) A[i] = i * 3 + 1;
  for (i = 0; i < 300; i = i + 1) {
    for (j = 0; j < 64; j = j + 1) {
      if ((j % 3) == 0) acc = acc + A[j];
      else acc = acc ^ A[j];
    }
  }
  printf("acc=%d\n", acc);
  return 0;
}
)";

profile::StatisticalProfile
profileSource(const char *src, const char *name,
              profile::ProfileOptions popts = {})
{
    ir::Module m = lang::compile(src, name);
    return profile::profileModule(m, popts);
}

profile::StatisticalProfile
profilePhaseShift(int phases, uint64_t seed = 7)
{
    const gen::Family &f = gen::Registry::global().require("phase_shift");
    auto w = f.make({{"phases", phases}, {"rounds", 1}, {"work", 40000}},
                    static_cast<long long>(seed));
    ir::Module m = workloads::compileWorkload(w);
    return profile::profileModule(m);
}

/** A sub-profile's JSON form, exactly as serialize() embeds it. */
template <typename T>
std::string
jsonOf(const T &part)
{
    std::string out;
    JsonWriter w(out);
    part.write(w);
    return out;
}

void
expectSinglePhaseMirrorsAggregate(const profile::StatisticalProfile &p)
{
    ASSERT_EQ(p.phases.size(), 1u);
    EXPECT_FALSE(p.multiPhase());
    EXPECT_EQ(p.phaseCount(), 1u);
    const auto &ph = p.phases[0];
    EXPECT_EQ(ph.dynamicInstructions, p.dynamicInstructions);
    EXPECT_EQ(ph.firstSlice, 0u);
    EXPECT_EQ(jsonOf(ph.mix), jsonOf(p.mix));
    EXPECT_EQ(jsonOf(ph.sfgl), jsonOf(p.sfgl));
}

TEST(ProfileCompat, V1LoadsAsSinglePhaseV3)
{
    auto p = profile::StatisticalProfile::loadFrom(
        fixturePath("profile_v1.json"));
    EXPECT_GT(p.dynamicInstructions, 0u);
    EXPECT_FALSE(p.sfgl.blocks.empty());
    // Pre-v3 files carry no slice stream.
    EXPECT_EQ(p.sliceLength, 0u);
    expectSinglePhaseMirrorsAggregate(p);
    // v1 descriptors (5-element arrays) load with the branch fields
    // defaulted — the profile must still re-serialize as v3.
    Json j = Json::parse(p.serialize());
    EXPECT_EQ(j.get("version").asInt(), 3);
    EXPECT_FALSE(j.has("phases"));
}

TEST(ProfileCompat, V2LoadsAsSinglePhaseV3)
{
    auto p = profile::StatisticalProfile::loadFrom(
        fixturePath("profile_v2.json"));
    EXPECT_GT(p.dynamicInstructions, 0u);
    EXPECT_EQ(p.sliceLength, 0u);
    expectSinglePhaseMirrorsAggregate(p);
}

TEST(ProfileCompat, V1AndV2DescribeTheSameWorkload)
{
    // The two fixtures were stripped from the same v3 profile; the
    // aggregate statistics both loaders reconstruct must agree.
    auto v1 = profile::StatisticalProfile::loadFrom(
        fixturePath("profile_v1.json"));
    auto v2 = profile::StatisticalProfile::loadFrom(
        fixturePath("profile_v2.json"));
    EXPECT_EQ(v1.workloadName, v2.workloadName);
    EXPECT_EQ(v1.dynamicInstructions, v2.dynamicInstructions);
    EXPECT_EQ(jsonOf(v1.mix), jsonOf(v2.mix));
    EXPECT_EQ(v1.sfgl.blocks.size(), v2.sfgl.blocks.size());
}

TEST(ProfileCompat, V3FixtureReserializesByteForByte)
{
    // A multi-phase phase_shift profile written by the DOM-based
    // encoder the streaming codec replaced: every byte on disk, and so
    // every cache key derived from it, must survive a load.
    std::string text = readFile(fixturePath("profile_v3.json"));
    auto p = profile::StatisticalProfile::deserialize(text);
    EXPECT_EQ(p.phases.size(), 3u);
    EXPECT_GT(p.sliceLength, 0u);
    EXPECT_EQ(p.serialize(), text);
    EXPECT_EQ(Json::parse(text).dump(-1), text);
}

/** The suite's 13 benchmarks (first instance of each) and one preset
 *  of every generator family. */
std::vector<workloads::Workload>
codecCorpus()
{
    std::vector<workloads::Workload> out;
    for (const auto &name : workloads::benchmarkNames()) {
        for (const auto &w : workloads::mibenchSuite()) {
            if (w.benchmark == name) {
                out.push_back(w);
                break;
            }
        }
    }
    for (auto &w : gen::Registry::global().sample(1, 0xc0dec))
        out.push_back(std::move(w));
    return out;
}

TEST(ProfileCodec, StreamingMatchesTheDomOnSuiteAndPresets)
{
    auto corpus = codecCorpus();
    ASSERT_EQ(corpus.size(),
              workloads::benchmarkNames().size() +
                  gen::Registry::global().names().size());
    for (const auto &w : corpus) {
        std::string text =
            profile::profileModule(workloads::compileWorkload(w))
                .serialize();
        EXPECT_EQ(Json::parse(text).dump(-1), text) << w.name();
        EXPECT_EQ(profile::StatisticalProfile::deserialize(text).serialize(),
                  text)
            << w.name();
    }
}

/** @p j with every object's members in reverse order and an unknown
 *  member added to each object. */
Json
shuffled(const Json &j)
{
    if (j.kind() == Json::Kind::Array) {
        Json out = Json::array();
        for (size_t i = 0; i < j.size(); ++i)
            out.push(shuffled(j.at(i)));
        return out;
    }
    if (j.kind() != Json::Kind::Object)
        return j;
    Json out = Json::object();
    Json unknown = Json::object();
    unknown.set("nested", Json::array());
    out.set("futureField", std::move(unknown));
    auto keys = j.keys();
    for (auto it = keys.rbegin(); it != keys.rend(); ++it)
        out.set(*it, shuffled(j.get(*it)));
    return out;
}

TEST(ProfileCodec, AcceptsAnyKeyOrderAndUnknownKeys)
{
    std::string text = readFile(fixturePath("profile_v3.json"));
    std::string reordered = shuffled(Json::parse(text)).dump(2);
    ASSERT_NE(reordered, text);
    EXPECT_EQ(profile::StatisticalProfile::deserialize(reordered).serialize(),
              text);
}

/** @p obj without member @p key. */
Json
without(const Json &obj, const std::string &key)
{
    Json out = Json::object();
    for (const auto &k : obj.keys())
        if (k != key)
            out.set(k, obj.get(k));
    return out;
}

/** Deserialize @p j; the FatalError message, or "" on success. */
std::string
loadError(const Json &j)
{
    try {
        profile::StatisticalProfile::deserialize(j.dump(-1));
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** @p root with @p fn applied to the object at @p path (keys and
 *  array indices). */
Json
edited(const Json &root, const std::vector<std::string> &path,
       const std::function<Json(const Json &)> &fn, size_t depth = 0)
{
    if (depth == path.size())
        return fn(root);
    const std::string &step = path[depth];
    if (root.kind() == Json::Kind::Array) {
        Json out = Json::array();
        for (size_t i = 0; i < root.size(); ++i)
            out.push(std::to_string(i) == step
                         ? edited(root.at(i), path, fn, depth + 1)
                         : root.at(i));
        return out;
    }
    Json out = Json::object();
    for (const auto &k : root.keys())
        out.set(k, k == step ? edited(root.get(k), path, fn, depth + 1)
                             : root.get(k));
    return out;
}

TEST(ProfileCodec, MissingRequiredKeysAreFatal)
{
    Json root = Json::parse(readFile(fixturePath("profile_v3.json")));
    struct Case
    {
        std::vector<std::string> path;
        std::vector<std::string> required;
    };
    const Case cases[] = {
        {{}, {"workload", "dynamicInstructions", "mix", "sfgl"}},
        {{"sfgl"}, {"blocks", "loops", "funcNames"}},
        {{"sfgl", "blocks", "0"},
         {"id", "func", "irBlock", "exec", "code", "succs", "term",
          "takenRate", "transitionRate", "easy", "loop"}},
        {{"sfgl", "loops", "0"},
         {"id", "header", "blocks", "parent", "depth", "entries",
          "avgIterations"}},
        {{"phases", "1"},
         {"dynamicInstructions", "firstSlice", "sliceCount", "mix",
          "sfgl"}},
        {{"phases", "1", "sfgl", "blocks", "0"}, {"exec", "easy"}},
    };
    for (const auto &c : cases) {
        for (const auto &key : c.required) {
            Json broken = edited(root, c.path, [&](const Json &obj) {
                return without(obj, key);
            });
            EXPECT_EQ(loadError(broken),
                      "fatal: json: missing key '" + key + "'")
                << key;
        }
    }
    // The slice stream and the phase list are optional (v1/v2 files
    // predate them); "version" is written but never required.
    for (const char *key : {"sliceLength", "sliceCount", "phases", "version"})
        EXPECT_EQ(loadError(without(root, key)), "") << key;
}

TEST(ProfileCodec, MalformedProfilesAreFatal)
{
    std::string text = readFile(fixturePath("profile_v3.json"));
    auto fails = [](const std::string &t) {
        try {
            profile::StatisticalProfile::deserialize(t);
        } catch (const FatalError &) {
            return true;
        }
        return false;
    };
    std::string badNumber = text;
    badNumber.replace(badNumber.find("4792860"), 7, "-");
    EXPECT_TRUE(fails(badNumber));
    EXPECT_TRUE(fails(text + "x"));
    EXPECT_TRUE(fails(text.substr(0, text.size() / 2)));
    EXPECT_TRUE(fails(std::string(100000, '[')));
    // A wrong kind where the schema expects another.
    Json root = Json::parse(text);
    EXPECT_TRUE(fails(
        edited(root, {"workload"}, [](const Json &) { return Json(5); })
            .dump(-1)));
    EXPECT_TRUE(fails(edited(root, {"sfgl", "blocks", "0", "easy"},
                             [](const Json &) { return Json(1); })
                          .dump(-1)));
    // A descriptor needs its five v1 fields.
    EXPECT_TRUE(fails(edited(root, {"sfgl", "blocks", "0", "code", "0"},
                             [](const Json &) {
                                 Json d = Json::array();
                                 d.push(Json(0));
                                 return d;
                             })
                          .dump(-1)));
}

TEST(PhaseProfile, SinglePhaseSerializesCompact)
{
    auto p = profileSource(kSinglePhaseSource, "steady");
    ASSERT_EQ(p.phases.size(), 1u);
    EXPECT_GT(p.sliceLength, 0u);
    EXPECT_GE(p.sliceCount, 2u);
    Json j = Json::parse(p.serialize());
    EXPECT_EQ(j.get("version").asInt(), 3);
    // A single phase mirrors the aggregate, so serializing it would
    // only duplicate the profile; the key is reserved for real lists.
    EXPECT_FALSE(j.has("phases"));

    auto back = profile::StatisticalProfile::deserialize(p.serialize());
    EXPECT_EQ(back.serialize(), p.serialize());
    expectSinglePhaseMirrorsAggregate(back);
    EXPECT_EQ(back.sliceLength, p.sliceLength);
    EXPECT_EQ(back.sliceCount, p.sliceCount);
}

TEST(PhaseProfile, MultiPhaseRoundTripsByteIdentically)
{
    auto p = profilePhaseShift(3);
    ASSERT_TRUE(p.multiPhase());
    Json j = Json::parse(p.serialize());
    ASSERT_TRUE(j.has("phases"));
    EXPECT_EQ(j.get("phases").size(), p.phases.size());

    auto back = profile::StatisticalProfile::deserialize(p.serialize());
    EXPECT_EQ(back.serialize(), p.serialize());
    ASSERT_EQ(back.phases.size(), p.phases.size());

    // The phase list tiles the run: slice ranges are contiguous and
    // the per-phase instruction counts sum to the aggregate.
    uint64_t sum = 0, nextSlice = 0;
    for (const auto &ph : p.phases) {
        EXPECT_EQ(ph.firstSlice, nextSlice);
        EXPECT_GE(ph.sliceCount, 1u);
        nextSlice = ph.firstSlice + ph.sliceCount;
        sum += ph.dynamicInstructions;
    }
    EXPECT_EQ(nextSlice, p.sliceCount);
    EXPECT_EQ(sum, p.dynamicInstructions);
}

TEST(PhaseDetection, MatchesTheGeneratorsConfiguredCount)
{
    // phase_shift's knob IS the ground truth: the instance executes
    // exactly `phases` behaviourally distinct regions back to back
    // (rounds=1), and detection must recover that count.
    for (int phases : {2, 3}) {
        auto p = profilePhaseShift(phases);
        EXPECT_EQ(p.phases.size(), static_cast<size_t>(phases))
            << "phases=" << phases;
    }
}

TEST(PhaseSynthesis, SinglePhaseMatchesAggregateOnlyByte)
{
    auto p = profileSource(kSinglePhaseSource, "steady");
    ASSERT_FALSE(p.multiPhase());
    synth::SynthesisOptions on, off;
    on.phaseAware = true;
    off.phaseAware = false;
    auto a = synth::synthesize(p, on);
    auto b = synth::synthesize(p, off);
    EXPECT_EQ(a.cSource, b.cSource);
    EXPECT_EQ(a.phases, 1u);
    EXPECT_EQ(b.phases, 1u);
}

TEST(PhaseSynthesis, MultiPhaseClonesAreStitchedPerPhase)
{
    auto p = profilePhaseShift(3);
    ASSERT_EQ(p.phases.size(), 3u);
    auto syn = synth::synthesize(p);
    EXPECT_EQ(syn.phases, 3u);
    for (const char *fn : {"p0f0", "p1f0", "p2f0"})
        EXPECT_NE(syn.cSource.find(fn), std::string::npos) << fn;
    // The stitched source is a valid bsyn program.
    EXPECT_NO_THROW(lang::compile(syn.cSource, "clone"));

    // Opting out falls back to the aggregate-only clone.
    synth::SynthesisOptions off;
    off.phaseAware = false;
    auto agg = synth::synthesize(p, off);
    EXPECT_EQ(agg.phases, 1u);
    EXPECT_EQ(agg.cSource.find("p1f0"), std::string::npos);

    // A profile with more phases than the synthesizer stitches (8)
    // also falls back. Repeating the detected phases gets there; the
    // aggregate SFGL is untouched, so the clone is the aggregate one.
    profile::StatisticalProfile many = p;
    while (many.phases.size() <= 8)
        many.phases.insert(many.phases.end(), p.phases.begin(),
                           p.phases.end());
    auto fell = synth::synthesize(many);
    EXPECT_EQ(fell.phases, 1u);
    EXPECT_EQ(fell.cSource, agg.cSource);
}

} // namespace
} // namespace bsyn

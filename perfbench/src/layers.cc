#include "layers.hh"

#include <atomic>
#include <memory>

#include "bench_stats.hh"
#include "isa/lowering.hh"
#include "isa/target.hh"
#include "lang/frontend.hh"
#include "opt/pipeline.hh"
#include "profile/profiler.hh"
#include "sim/core_model.hh"
#include "sim/decoded_program.hh"
#include "synth/synthesizer.hh"

namespace perfbench
{

using namespace bsyn;

namespace
{

pipeline::SessionOptions
coreSessionOptions(const Options &opts)
{
    pipeline::SessionOptions so;
    so.threads = poolThreads();
    so.synthesis = synthesisOptions(opts);
    return so;
}

/** Totals of the extra-calls pass. */
struct ExtrasRun
{
    std::atomic<uint64_t> retired{0};
    std::atomic<uint64_t> passes{0};
};

/**
 * One traced pass of extra layer calls per instance: the -O2 pipeline,
 * lowering, predecode, the five engine modes on the profiler's lowered
 * program, and the artifact cache (store, load, a Session profile miss
 * then hit). Each engine run is checked against the workload's
 * expected output and the others' instruction count.
 */
void
runExtras(const Options &opts,
          const std::vector<workloads::Workload> &corpus,
          const std::vector<CloneOutput> &outputs, SpanRecorder &rec,
          Outcome &outcome, ExtrasRun &totals)
{
    ScratchDir dir(opts, "layers");
    pipeline::SessionOptions so = coreSessionOptions(opts);
    so.cacheDir = dir.path();
    pipeline::Session session(so);
    const profile::ProfileOptions &popts = session.options().profiling;
    const sim::CoreConfig core = gen::FidelityOptions().machine.core;
    std::vector<std::string> errors(corpus.size());

    Span pass(&rec, "bench.layer_pass", -1);
    session.parallelFor(corpus.size(), [&](size_t i) {
        const workloads::Workload &w = corpus[i];
        const auto id = static_cast<int64_t>(i);
        Span inst(&rec, "bench.instance", id, pass.id());
        try {
            ir::Module mod = lang::compile(w.source, w.name());
            ir::Module o2 = lang::compile(w.source, w.name());
            {
                Span s(&rec, "opt.optimize", id, inst.id());
                totals.passes += uint64_t(opt::optimize(o2, opt::OptLevel::O2));
            }
            // The profiler's lowering: x86 without operand fusion.
            isa::LoweringOptions lo;
            lo.applyFusion = false;
            isa::MachineProgram prog;
            {
                Span s(&rec, "isa.lower", id, inst.id());
                prog = isa::lower(mod, isa::targetX86(), lo);
            }
            std::unique_ptr<sim::DecodedProgram> dec;
            {
                Span s(&rec, "sim.decode", id, inst.id());
                dec = std::make_unique<sim::DecodedProgram>(prog);
            }
            sim::ExecStats fast;
            {
                Span s(&rec, "sim.fast", id, inst.id());
                fast = sim::execute(*dec, nullptr, popts.limits);
            }
            if (fast.output.find(w.expectedOutput) == std::string::npos)
                throw std::runtime_error("output lacks '" +
                                         w.expectedOutput + "'");
            totals.retired += fast.instructions;

            sim::ExecStats sliced, instrumented;
            {
                Span s(&rec, "sim.sliced", id, inst.id());
                sim::InstrumentedCounters c;
                sim::SlicedCounters sl;
                sim::SliceOptions sopts;
                sopts.baseSliceLength = popts.sliceBaseLength;
                sopts.maxSlices = popts.maxSliceCheckpoints;
                sliced = sim::executeInstrumentedSliced(
                    *dec, popts.profilingCache, c, sl, sopts, popts.limits);
            }
            {
                Span s(&rec, "sim.instrumented", id, inst.id());
                sim::InstrumentedCounters c;
                instrumented = sim::executeInstrumented(
                    *dec, popts.profilingCache, c, popts.limits);
            }
            sim::TimingStats timed, timedRef;
            {
                Span s(&rec, "sim.timed", id, inst.id());
                timed = sim::simulateTiming(*dec, core, popts.limits,
                                            sim::TimingEngine::Specialized);
            }
            {
                Span s(&rec, "sim.timed_ref", id, inst.id());
                timedRef = sim::simulateTiming(*dec, core, popts.limits,
                                               sim::TimingEngine::Reference);
            }
            if (sliced != fast || instrumented != fast ||
                timed.instructions != fast.instructions ||
                timedRef.instructions != fast.instructions ||
                timed.cycles != timedRef.cycles)
                throw std::runtime_error("engine modes disagree");

            // Artifact cache: the core pass's profile, stored and read
            // back; then a Session profile miss followed by its hit.
            const CloneOutput &out = outputs[i];
            std::string key =
                pipeline::ArtifactCache::key("perfbench.profile", {w.name()});
            {
                Span s(&rec, "pipeline.cache.store", id, inst.id());
                session.cache().store(key, out.profileJson);
            }
            std::string text;
            bool loaded;
            {
                Span s(&rec, "pipeline.cache.load", id, inst.id());
                loaded = session.cache().load(key, text);
            }
            if (!loaded || text != out.profileJson)
                throw std::runtime_error("artifact cache round trip");
            {
                Span s(&rec, "pipeline.profile_miss", id, inst.id());
                session.profile(w);
            }
            bool cached = false;
            profile::StatisticalProfile hit;
            {
                Span s(&rec, "pipeline.profile_hit", id, inst.id());
                hit = session.profile(w, &cached);
            }
            if (!cached || hit.serialize() != out.profileJson)
                throw std::runtime_error("profile cache hit differs");
        } catch (const std::exception &e) {
            errors[i] = e.what();
        }
    });
    for (size_t i = 0; i < corpus.size(); ++i) {
        outcome.attempt();
        if (!errors[i].empty())
            outcome.fail("layers " + corpus[i].name() + ": " + errors[i]);
    }
}

double
rate(uint64_t instructions, double seconds)
{
    return seconds > 0.0 ? double(instructions) / seconds / 1e6 : 0.0;
}

double
ms(double seconds)
{
    return seconds * 1e3;
}

} // namespace

CoreRun
runCore(const Options &opts, const std::vector<workloads::Workload> &corpus,
        SpanRecorder *rec, Outcome &outcome)
{
    pipeline::Session session(coreSessionOptions(opts));
    session.pool();

    const size_t n = corpus.size();
    CoreRun run;
    run.outputs.resize(n);
    std::vector<uint64_t> phases(n, 0);
    std::vector<std::string> errors(n);
    std::atomic<uint64_t> calls{0};

    auto t0 = Clock::now();
    {
        Span pass(rec, "bench.core_pass", -1);
        session.parallelFor(n, [&](size_t i) {
            const workloads::Workload &w = corpus[i];
            const auto id = static_cast<int64_t>(i);
            Span inst(rec, "bench.instance", id, pass.id());
            try {
                ir::Module mod;
                {
                    Span s(rec, "lang.compile", id, inst.id());
                    mod = lang::compile(w.source, w.name()); // -O0 shape
                }
                profile::StatisticalProfile prof;
                {
                    Span s(rec, "profile.module", id, inst.id());
                    prof = profile::profileModule(
                        mod, session.options().profiling);
                }
                synth::SynthesisOptions so = session.options().synthesis;
                so.seed = pipeline::deriveWorkloadSeed(so.seed, w.name());
                synth::SyntheticBenchmark syn;
                {
                    Span s(rec, "synth.synthesize", id, inst.id());
                    const uint64_t parent = s.id();
                    syn = synth::synthesize(
                        prof, so,
                        [&](const std::string &src) {
                            Span m(rec, "pipeline.measure", id, parent);
                            ++calls;
                            return session.measureInstructions(src);
                        },
                        [&](size_t k, const std::function<void(size_t)> &fn) {
                            if (k <= 1) {
                                for (size_t j = 0; j < k; ++j)
                                    fn(j);
                                return;
                            }
                            session.parallelFor(k, fn);
                        });
                }
                phases[i] = prof.phaseCount();
                run.outputs[i] = {w.name(), prof.serialize(), syn.cSource};
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
        });
    }
    run.wallS = secondsSince(t0);
    run.measureCalls = calls.load();
    for (size_t i = 0; i < n; ++i) {
        outcome.attempt();
        run.phases += phases[i];
        if (!errors[i].empty())
            outcome.fail("core " + corpus[i].name() + ": " + errors[i]);
    }
    return run;
}

std::vector<CloneOutput>
tracedLayerPass(const Options &opts,
                const std::vector<workloads::Workload> &corpus,
                SpanRecorder &rec, Result &res)
{
    // Alternate untraced and traced core passes so both see the same
    // machine state; the last traced pass's spans are the ones kept.
    std::vector<double> untraced, traced;
    CoreRun last;
    auto t0 = Clock::now();
    do {
        CoreRun plain = runCore(opts, corpus, nullptr, res.outcome);
        untraced.push_back(plain.wallS);
        rec.clear();
        last = runCore(opts, corpus, &rec, res.outcome);
        traced.push_back(last.wallS);
        res.outcome.expectEqual("traced core outputs",
                                outputsDigest(plain.outputs),
                                outputsDigest(last.outputs));
    } while (secondsSince(t0) < opts.seconds * 0.5);

    ExtrasRun extras;
    runExtras(opts, corpus, last.outputs, rec, res.outcome, extras);
    const std::vector<SpanRecord> spans = rec.spans();
    const uint64_t retired = extras.retired.load();

    res.set("trace_overhead_frac", median(traced) / median(untraced) - 1.0,
            "ratio");
    res.set("lang.compile_s", totalSeconds(spans, "lang.compile"), "s");
    res.set("opt.optimize_s", totalSeconds(spans, "opt.optimize"), "s");
    res.set("opt.passes_applied", double(extras.passes.load()), "count");
    const double lower = totalSeconds(spans, "isa.lower");
    const double decode = totalSeconds(spans, "sim.decode");
    const double sliced = totalSeconds(spans, "sim.sliced");
    res.set("isa.lower_s", lower, "s");
    res.set("sim.decode_s", decode, "s");
    const double timedRate = rate(retired, totalSeconds(spans, "sim.timed"));
    const double refRate = rate(retired, totalSeconds(spans, "sim.timed_ref"));
    res.set("sim.fast.minstr_per_s",
            rate(retired, totalSeconds(spans, "sim.fast")), "Minstr/s");
    res.set("sim.sliced.minstr_per_s", rate(retired, sliced), "Minstr/s");
    res.set("sim.instrumented.minstr_per_s",
            rate(retired, totalSeconds(spans, "sim.instrumented")),
            "Minstr/s");
    res.set("sim.timed.minstr_per_s", timedRate, "Minstr/s");
    res.set("sim.timed_ref.minstr_per_s", refRate, "Minstr/s");
    res.set("sim.timed_vs_ref", refRate > 0 ? timedRate / refRate : 0.0,
            "ratio");
    res.set("sim.retired_instr", double(retired), "count");

    const double module = totalSeconds(spans, "profile.module");
    res.set("profile.module_s", module, "s");
    res.set("profile.reconstruct_s", module - lower - decode - sliced, "s");
    res.set("profile.phases", double(last.phases), "count");

    res.set("synth.synthesize_s", totalSeconds(spans, "synth.synthesize"),
            "s");
    res.set("synth.measure_s", totalSeconds(spans, "pipeline.measure"), "s");
    res.set("synth.measure_calls", double(last.measureCalls), "count");

    res.set("pipeline.cache.store_ms",
            ms(median(durations(spans, "pipeline.cache.store"))), "ms");
    res.set("pipeline.cache.load_ms",
            ms(median(durations(spans, "pipeline.cache.load"))), "ms");
    res.set("pipeline.profile_hit_ms",
            ms(median(durations(spans, "pipeline.profile_hit"))), "ms");
    return last.outputs;
}

void
setStageMetricsFromSpans(Result &res, const std::vector<SpanRecord> &spans)
{
    // Queue wait: from the start of the core pass until a pool worker
    // starts the instance.
    uint64_t passId = 0, passStart = 0;
    for (const auto &s : spans)
        if (s.name == "bench.core_pass") {
            passId = s.id;
            passStart = s.startNs;
        }
    std::vector<double> queue;
    for (const auto &s : spans)
        if (s.name == "bench.instance" && s.parent == passId)
            queue.push_back(double(s.startNs - passStart) * 1e-9);
    res.set("stage.queue.p50_ms", ms(median(queue)), "ms");
    res.set("stage.compile.p50_ms", ms(median(durations(spans, "lang.compile"))),
            "ms");
    res.set("stage.profile.p50_ms",
            ms(median(durations(spans, "profile.module"))), "ms");
    res.set("stage.synth.p50_ms",
            ms(median(durations(spans, "synth.synthesize"))), "ms");
}

void
setCacheMetrics(Result &res, const pipeline::CacheStats &cs,
                uint64_t distinctKeys)
{
    res.set("pipeline.profile.misses_per_key",
            missesPerKey(cs.profileMisses, distinctKeys), "count");
    res.set("pipeline.synth.misses_per_key",
            missesPerKey(cs.synthMisses, distinctKeys), "count");
    const uint64_t lookups = cs.decodeHits + cs.decodeMisses;
    res.set("pipeline.decode.hit_ratio",
            lookups ? double(cs.decodeHits) / double(lookups) : 0.0, "ratio");
}

void
setGenerateMetric(Result &res, SpanRecorder &rec,
                  const std::function<void()> &generate)
{
    res.set("gen.generate_s", medianSetupSeconds(5, generate), "s");
    Span s(&rec, "gen.generate", -1);
    generate();
}

void
finishTraced(Result &res, const SpanRecorder &rec)
{
    const std::vector<SpanRecord> spans = rec.spans();
    auto self = selfSeconds(spans);
    for (const char *layer : {"lang", "opt", "isa", "sim", "profile", "synth",
                              "pipeline", "gen"})
        res.set(std::string(layer) + ".self_s", self[layer], "s");
    res.traceJson = chromeTraceJson(spans);
}

} // namespace perfbench

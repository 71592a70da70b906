/**
 * @file
 * bsyn — command-line front end to the framework. Each subcommand is one
 * stage of the paper's Figure 1 flow, operating on files so the stages
 * can run on different sides of an organizational wall.
 *
 * The kCommands table at the end of this file is the one home of every
 * command's synopsis: `bsyn help` prints it, misuse prints it, and the
 * parser accepts exactly the flags it names (plus the global --trace,
 * --log-level and --quiet). Exit codes: 0 success; 1 a run failed,
 * `compare` found similarity, or a submitted job failed; 2 misuse
 * (unknown command or flag, wrong argument count, missing required
 * flag, malformed value); 3 `submit --wait` can no longer get a result.
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gen/fidelity.hh"
#include "gen/registry.hh"
#include "isa/lowering.hh"
#include "obs/log.hh"
#include "obs/trace.hh"
#include "pipeline/pipeline.hh"
#include "pipeline/run_sink.hh"
#include "pipeline/session.hh"
#include "replay/engine.hh"
#include "serve/merge.hh"
#include "serve/shard.hh"
#include "serve/spool.hh"
#include "serve/worker.hh"
#include "similarity/report.hh"
#include "support/error.hh"
#include "support/string_util.hh"
#include "support/table.hh"

using namespace bsyn;

namespace
{

struct Args
{
    std::vector<std::string> positional;
    std::string output;
    std::string target = "x86";
    opt::OptLevel level = opt::OptLevel::O0;
    uint64_t targetInstr =
        pipeline::defaultSynthesisOptions().targetInstructions;
    uint64_t seed = pipeline::defaultSynthesisOptions().seed;
    unsigned threads = 0; ///< 0 = one per hardware thread
    std::string cacheDir; ///< empty = no artifact cache
    bool noCache = false; ///< overrides --cache-dir / BSYN_CACHE_DIR
    bool levelSet = false; ///< an explicit -O flag was passed
    bool noTiming = false; ///< fidelity: skip the timing CPI metric

    /** Base slice checkpoint interval for profiling (retired
     *  instructions); 0 disables slicing (single-phase profiles). */
    uint64_t phaseSlices = 4096;
    bool showPhases = false;    ///< profile/fidelity: per-phase detail
    bool noPhaseSynth = false;  ///< synthesize from the aggregate only
    bool onlyFamilies = false;  ///< fidelity: skip the Figure-4 suite

    /** Generated-workload selection: each --family value, in order
     *  ("all" or "family[,knob=v...][,seed=S]"). */
    std::vector<std::string> families;
    uint64_t genCount = 1; ///< instances per family for "all"/seedless

    /** suite/fidelity: which shard of the resolved batch to run
     *  (validated eagerly at parse time; 1/1 = everything). */
    serve::ShardSpec shard;

    bool resultsOnly = false; ///< fidelity: deterministic half only
    bool mergeFidelity = false; ///< merge: inputs are fidelity reports

    std::string spool;     ///< serve/submit: spool directory
    std::string jobId;     ///< submit: explicit job id
    bool timing = false;   ///< submit: fidelity jobs score timing CPI
    bool wait = false;     ///< submit: block until the result lands
    uint64_t timeoutS = 300; ///< submit --wait: give up after this
    bool drain = false;    ///< serve: exit once the spool is empty
    uint64_t maxJobs = 0;  ///< serve: exit after N jobs (0 = no limit)
    uint64_t pollMs = 50;  ///< serve: starting idle poll interval
    uint64_t pollMaxMs = 1000; ///< serve: idle backoff cap
    double reclaimAfterS = 0.0; ///< serve: stale-claim age (0 = off)

    // replay
    std::string schedule = "constant,rate=50"; ///< arrival rate model
    std::string mix;          ///< workload mix spec (required)
    double durationS = 1.0;   ///< replay horizon in seconds
    uint64_t population = 4;  ///< seeds per seedless mix entry
    unsigned spoolWorkers = 2; ///< replay --spool: in-process workers

    // observability (every command)
    std::string traceFile; ///< --trace / BSYN_TRACE: trace-event JSON
    std::string logLevel;  ///< --log-level / BSYN_LOG
    bool quiet = false;    ///< --quiet: errors only on stderr

    /** Cache directory after --no-cache is applied. */
    std::string
    effectiveCacheDir() const
    {
        return noCache ? std::string() : cacheDir;
    }
};

/** Parse a full unsigned decimal/hex number; fatal() on junk. */
uint64_t
parseU64(const std::string &s, const char *what)
{
    // stoull would silently wrap "-1" to 2^64-1; reject any sign or
    // leading whitespace so only plain unsigned literals get through.
    if (s.empty() || !std::isalnum(static_cast<unsigned char>(s[0])))
        fatal("invalid number '%s' for %s", s.c_str(), what);
    // Base 0 would read a leading zero as octal; only 0x means hex.
    bool hex = s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
    try {
        size_t pos = 0;
        uint64_t v = std::stoull(s, &pos, hex ? 16 : 10);
        if (pos != s.size())
            throw std::invalid_argument(s);
        return v;
    } catch (const FatalError &) {
        throw;
    } catch (const std::exception &) {
        fatal("invalid number '%s' for %s", s.c_str(), what);
    }
}

/** Parse a finite non-negative decimal number; fatal() on junk. */
double
parseF64(const std::string &s, const char *what)
{
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        fatal("invalid number '%s' for %s", s.c_str(), what);
    try {
        size_t pos = 0;
        double v = std::stod(s, &pos);
        if (pos != s.size() || !std::isfinite(v) || v < 0.0)
            throw std::invalid_argument(s);
        return v;
    } catch (const FatalError &) {
        throw;
    } catch (const std::exception &) {
        fatal("invalid number '%s' for %s", s.c_str(), what);
    }
}

/** One subcommand: `bsyn <name> <synopsis>` runs @p run. */
struct Command
{
    const char *name;

    /**
     * What `bsyn help` and misuse print, and the command's grammar:
     * each "-x" or "--x" token is a flag the command accepts (required
     * when outside [...]), and each bare <arg> outside [...] that does
     * not follow a flag is a positional ("<in>..." takes one or more).
     */
    const char *synopsis;

    int (*run)(const Args &);
};

/** The synopsis name of command-line flag @p a: -j is --threads, any
 *  -O level is -O0..-O3, and --family=<spec> is --family. */
std::string
flagName(const std::string &a)
{
    if (a == "-j")
        return "--threads";
    if (a.size() == 3 && a[0] == '-' && a[1] == 'O')
        return "-O0..-O3";
    if (startsWith(a, "--family="))
        return "--family";
    return a;
}

/** Parse the arguments after `bsyn <cmd>`; fatal() on misuse. */
Args
parseArgs(const Command &cmd, int argc, char **argv)
{
    // The flags, required flags and positional count cmd's synopsis
    // names (see Command::synopsis).
    std::set<std::string> flags{"--trace", "--log-level", "--quiet"};
    std::vector<std::string> required;
    size_t minArgs = 0, maxArgs = 0;
    long depth = 0;
    bool afterFlag = false;
    std::istringstream in(cmd.synopsis);
    for (std::string tok; in >> tok;) {
        size_t lead = tok.find_first_not_of('[');
        bool outside = depth == 0 && lead == 0; // not within [...]
        std::string word = tok.substr(lead);
        bool flag = word[0] == '-';
        if (flag) {
            word = word.substr(0, word.find(']'));
            flags.insert(word);
            if (outside)
                required.push_back(word);
        } else if (outside && word[0] == '<' && !afterFlag) {
            bool variadic = word.size() > 3 &&
                            word.compare(word.size() - 3, 3, "...") == 0;
            ++minArgs;
            maxArgs = variadic ? SIZE_MAX : minArgs;
        }
        afterFlag = flag;
        depth += std::count(tok.begin(), tok.end(), '[') -
                 std::count(tok.begin(), tok.end(), ']');
    }

    std::set<std::string> seen;
    Args args;
    if (const char *env = std::getenv("BSYN_CACHE_DIR"))
        args.cacheDir = env;
    if (const char *env = std::getenv("BSYN_TRACE"))
        args.traceFile = env;
    if (const char *env = std::getenv("BSYN_LOG"))
        args.logLevel = env;
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (a.empty() || a[0] != '-') {
            args.positional.push_back(a);
            continue;
        }
        const std::string name = flagName(a);
        if (!flags.count(name))
            fatal("'%s' is not an option of '%s'", a.c_str(), cmd.name);
        seen.insert(name);
        auto next = [&] {
            if (i + 1 >= argc)
                fatal("missing value after %s", a.c_str());
            return std::string(argv[++i]);
        };
        auto number = [&](uint64_t lo, uint64_t hi) {
            uint64_t n = parseU64(next(), a.c_str());
            if (n < lo || n > hi)
                fatal("%s %llu is out of range (%llu..%llu)", a.c_str(),
                      static_cast<unsigned long long>(n),
                      static_cast<unsigned long long>(lo),
                      static_cast<unsigned long long>(hi));
            return n;
        };
        const uint64_t any = UINT64_MAX;
        if (a == "-o") {
            args.output = next();
        } else if (a == "--target") {
            args.target = next();
            isa::targetByName(args.target); // reject bad names up front
        } else if (a == "--target-instr") {
            args.targetInstr = number(0, any);
        } else if (a == "--seed") {
            args.seed = number(0, any);
        } else if (a == "--cache-dir") {
            args.cacheDir = next();
        } else if (a == "--no-cache") {
            args.noCache = true;
        } else if (name == "--family") {
            args.families.push_back(
                a == name ? next() : a.substr(strlen("--family=")));
        } else if (a == "--gen-count") {
            args.genCount = number(1, 64);
        } else if (a == "--no-timing") {
            args.noTiming = true;
        } else if (a == "--shard") {
            // Validated here so a malformed spec ("0/3", "4/3", "x/y",
            // "1/0") is an argument error: usage + exit 2.
            args.shard = serve::parseShardSpec(next());
        } else if (a == "--results-only") {
            args.resultsOnly = true;
        } else if (a == "--fidelity") {
            args.mergeFidelity = true;
        } else if (a == "--spool") {
            args.spool = next();
        } else if (a == "--id") {
            args.jobId = next();
            if (!serve::validJobId(args.jobId))
                fatal("--id '%s' is invalid (need 1..200 chars of "
                      "[A-Za-z0-9._-])",
                      args.jobId.c_str());
        } else if (a == "--timing") {
            args.timing = true;
        } else if (a == "--wait") {
            args.wait = true;
        } else if (a == "--timeout") {
            args.timeoutS = number(0, any);
        } else if (a == "--drain") {
            args.drain = true;
        } else if (a == "--max-jobs") {
            args.maxJobs = number(0, any);
        } else if (a == "--poll-ms") {
            args.pollMs = number(1, 60000);
        } else if (a == "--poll-max-ms") {
            args.pollMaxMs = number(1, 600000);
        } else if (a == "--reclaim-after") {
            args.reclaimAfterS = parseF64(next(), "--reclaim-after");
        } else if (a == "--schedule") {
            args.schedule = next();
            // Reject a malformed rate model up front: usage + exit 2.
            replay::Schedule::parse(args.schedule);
        } else if (a == "--mix") {
            args.mix = next(); // validated after the loop
        } else if (a == "--duration") {
            args.durationS = parseF64(next(), "--duration");
            if (!(args.durationS > 0.0) || args.durationS > 3600.0)
                fatal("--duration %.3f is out of range (0, 3600]",
                      args.durationS);
        } else if (a == "--population") {
            args.population = number(1, 64);
        } else if (a == "--workers") {
            args.spoolWorkers = static_cast<unsigned>(number(1, 64));
        } else if (a == "--trace") {
            args.traceFile = next();
        } else if (a == "--log-level") {
            args.logLevel = next();
        } else if (a == "--quiet") {
            args.quiet = true;
        } else if (a == "--phase-slices") {
            args.phaseSlices = number(0, any);
        } else if (a == "--phases") {
            args.showPhases = true;
        } else if (a == "--no-phase-synth") {
            args.noPhaseSynth = true;
        } else if (a == "--only-families") {
            args.onlyFamilies = true;
        } else if (name == "--threads") {
            args.threads = static_cast<unsigned>(number(0, 4096));
        } else {
            args.level = opt::optLevelByName(a); // -O0..-O3
            args.levelSet = true;
        }
    }
    for (const auto &flag : required)
        if (!seen.count(flag))
            fatal("'%s' requires %s", cmd.name, flag.c_str());
    const size_t n = args.positional.size();
    if (n < minArgs || n > maxArgs)
        fatal("'%s' takes %s%zu argument%s, got %zu", cmd.name,
              maxArgs == SIZE_MAX ? "at least " : "", minArgs,
              minArgs == 1 ? "" : "s", n);
    // --mix resolves real workloads and depends on --population, so it
    // validates after the loop (flag order must not matter). A bad mix
    // — unknown family, weights summing to zero, malformed mode ends —
    // is an argument error: usage + exit 2.
    if (!args.mix.empty())
        replay::Mix::parse(args.mix, args.population);
    // A bad level name — flag or BSYN_LOG — is an argument error too.
    if (!args.logLevel.empty())
        obs::parseLogLevel(args.logLevel);
    return args;
}

/**
 * The Session a command's flags ask for. @p batch is how many
 * workloads it runs at once: the pool is capped there, so a wide
 * --threads (or a wide machine) never spawns workers that could only
 * idle.
 */
pipeline::SessionOptions
sessionOptions(const Args &args, size_t batch)
{
    pipeline::SessionOptions so;
    so.threads = pipeline::resolveSuiteThreads(args.threads, batch);
    so.cacheDir = args.effectiveCacheDir();
    so.synthesis.targetInstructions = args.targetInstr;
    so.synthesis.seed = args.seed;
    so.synthesis.phaseAware = !args.noPhaseSynth;
    so.profiling.sliceBaseLength = args.phaseSlices;
    return so;
}

/**
 * Resolve the --family selection into concrete workloads: "all" is a
 * fixed-seed sample across every registered family (--gen-count
 * presets each, seeded from --seed); "all-presets" is one instance of
 * every published preset of every family (full coverage, seeded from
 * --seed — what the CI fidelity smoke scores); an explicit spec
 * without a seed yields --gen-count instances at seeds 1..N; a spec
 * carrying seed=S yields exactly that instance.
 */
std::vector<workloads::Workload>
generatedSelection(const Args &args)
{
    std::vector<workloads::Workload> out;
    for (const auto &text : args.families) {
        if (text == "all") {
            auto sample = gen::Registry::global().sample(
                args.genCount, args.seed);
            out.insert(out.end(), sample.begin(), sample.end());
            continue;
        }
        if (text == "all-presets") {
            auto batch =
                gen::Registry::global().allPresets(args.seed);
            out.insert(out.end(), batch.begin(), batch.end());
            continue;
        }
        gen::InstanceSpec spec = gen::parseSpec(text);
        const gen::Family &family =
            gen::Registry::global().require(spec.family);
        if (spec.hasSeed) {
            out.push_back(family.make(spec.knobs, spec.seed));
        } else {
            for (uint64_t s = 1; s <= args.genCount; ++s)
                out.push_back(family.make(spec.knobs, s));
        }
    }
    return out;
}

int
cmdRun(const Args &args)
{
    std::string src = readFile(args.positional[0]);
    auto stats = pipeline::runSource(src, args.positional[0], args.level,
                                     isa::targetByName(args.target));
    std::fputs(stats.output.c_str(), stdout);
    obs::logf(obs::LogLevel::Info,
              "[bsyn] %llu instructions (%llu loads, %llu stores, "
              "%llu branches), exit code %d",
              static_cast<unsigned long long>(stats.instructions),
              static_cast<unsigned long long>(stats.memReads),
              static_cast<unsigned long long>(stats.memWrites),
              static_cast<unsigned long long>(stats.branches),
              stats.exitCode);
    return stats.exitCode;
}

int
cmdProfile(const Args &args)
{
    pipeline::Session session(sessionOptions(args, 1));

    bool cached = false;
    auto prof = session.profile(readFile(args.positional[0]),
                                args.positional[0], &cached);
    prof.saveTo(args.output);
    obs::logf(obs::LogLevel::Info,
              "[bsyn] wrote %s%s: %llu dynamic instructions, %zu "
              "blocks, %zu loops, %zu phase%s (%llu slices of "
              "%llu)",
              args.output.c_str(), cached ? " (from cache)" : "",
              static_cast<unsigned long long>(prof.dynamicInstructions),
              prof.sfgl.blocks.size(), prof.sfgl.loops.size(),
              prof.phaseCount(), prof.phaseCount() == 1 ? "" : "s",
              static_cast<unsigned long long>(prof.sliceCount),
              static_cast<unsigned long long>(prof.sliceLength));
    if (args.showPhases) {
        TextTable table("profile phases");
        table.setHeader({"phase", "instr", "slices", "load", "store",
                         "branch", "fp"});
        for (size_t i = 0; i < prof.phases.size(); ++i) {
            const auto &ph = prof.phases[i];
            table.addRow(
                {std::to_string(i),
                 std::to_string(ph.dynamicInstructions),
                 std::to_string(ph.sliceCount),
                 TextTable::pct(ph.mix.loadFraction()),
                 TextTable::pct(ph.mix.storeFraction()),
                 TextTable::pct(ph.mix.branchFraction()),
                 TextTable::pct(ph.mix.fpFraction())});
        }
        table.print(std::cout);
    }
    return 0;
}

int
cmdSynth(const Args &args)
{
    // One clone, but its calibration ladder fans across the pool: no
    // batch caps the worker count.
    pipeline::Session session(sessionOptions(args, SIZE_MAX));

    auto prof =
        profile::StatisticalProfile::loadFrom(args.positional[0]);
    bool cached = false;
    auto syn =
        session.synthesize(prof, session.options().synthesis, &cached);
    writeFile(args.output, syn.cSource);
    if (cached) {
        // Skip the measurement run: a warm synth must compute nothing.
        obs::logf(obs::LogLevel::Info,
                  "[bsyn] wrote %s (from cache): R=%llu, %u "
                  "phase(s), coverage %.1f%%",
                  args.output.c_str(),
                  static_cast<unsigned long long>(syn.reductionFactor),
                  syn.phases, 100.0 * syn.patternStats.coverage());
        return 0;
    }
    obs::logf(obs::LogLevel::Info,
              "[bsyn] wrote %s: R=%llu, %u phase(s), coverage "
              "%.1f%%, clone runs %llu instructions",
              args.output.c_str(),
              static_cast<unsigned long long>(syn.reductionFactor),
              syn.phases, 100.0 * syn.patternStats.coverage(),
              static_cast<unsigned long long>(
                  session.measureInstructions(syn.cSource)));
    return 0;
}

int
cmdCompare(const Args &args)
{
    auto report =
        similarity::compareSources(readFile(args.positional[0]),
                                   readFile(args.positional[1]));
    std::printf("winnowing (Moss-style): %.1f%%\n",
                100.0 * report.winnow);
    std::printf("tiling (JPlag-style):   %.1f%%\n",
                100.0 * report.tiling);
    std::printf("verdict: %s\n", report.hidesProprietaryInformation()
                                     ? "no meaningful similarity"
                                     : "similarity detected");
    return report.hidesProprietaryInformation() ? 0 : 1;
}

int
cmdTime(const Args &args)
{
    std::string src = readFile(args.positional[0]);
    std::printf("%-20s %12s %8s %10s\n", "machine", "cycles", "CPI",
                "time(us)");
    for (const auto &machine : sim::paperMachines()) {
        auto t = pipeline::timeOnMachine(src, args.positional[0],
                                         args.level, machine);
        std::printf("%-20s %12llu %8.3f %10.2f\n", machine.name.c_str(),
                    static_cast<unsigned long long>(t.cycles), t.cpi(),
                    machine.timeNs(t.cycles) / 1000.0);
    }
    return 0;
}

int
cmdSuite(const Args &args)
{
    // --family swaps the batch from the MiBench-analogue suite to
    // generated family instances; everything downstream (cache,
    // sinks, seeds) treats them identically.
    const std::vector<workloads::Workload> fullSuite =
        args.families.empty() ? workloads::mibenchSuite()
                              : generatedSelection(args);

    // --shard: every invocation resolves the full batch identically,
    // then keeps only the workloads hashed onto this shard; the
    // per-workload seeds derive from names, so shard outputs are the
    // exact bytes the unsharded run produces for those workloads.
    serve::ShardedBatch sharded = serve::filterShard(fullSuite, args.shard);
    const std::vector<workloads::Workload> &suite = sharded.workloads;
    if (!args.shard.isAll())
        obs::logf(obs::LogLevel::Info,
                  "[bsyn] shard %s: %zu of %zu workloads",
                  args.shard.str().c_str(), suite.size(), sharded.total);

    pipeline::Session session(sessionOptions(args, suite.size()));

    // Sinks: stream clones/profiles to disk as they finish (when -o is
    // given), log progress, and collect for the summary table.
    pipeline::CallbackSink progress(
        [](const pipeline::RunStatus &st, const pipeline::WorkloadRun &r) {
            if (!st.ok)
                return;
            obs::logf(obs::LogLevel::Info,
                      "[bsyn] %-22s R=%llu, coverage %.1f%%%s",
                      st.workload.c_str(),
                      static_cast<unsigned long long>(
                          r.synthetic.reductionFactor),
                      100.0 * r.synthetic.patternStats.coverage(),
                      st.profileCached && st.synthCached ? " (cached)"
                                                         : "");
        });
    pipeline::CollectSink collect;
    std::unique_ptr<pipeline::DirectorySink> disk;
    std::vector<pipeline::RunSink *> sinks{&progress, &collect};
    if (!args.output.empty()) {
        // Created before spending minutes synthesizing.
        disk = std::make_unique<pipeline::DirectorySink>(args.output);
        sinks.push_back(disk.get());
    }
    pipeline::TeeSink tee(sinks);

    auto t0 = std::chrono::steady_clock::now();
    auto statuses = session.processSuite(suite, tee);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    size_t failed = 0;
    for (const auto &st : statuses) {
        if (!st.ok) {
            ++failed;
            obs::logf(obs::LogLevel::Warn, "[bsyn] FAILED %-22s %s",
                      st.workload.c_str(), st.error.c_str());
        }
    }

    if (!args.output.empty()) {
        // Status artifact with shard provenance: `bsyn merge` checks
        // the suite hash and index cover before reunifying shards.
        serve::makeSuiteStatus(sharded, statuses)
            .saveTo(args.output + "/" + serve::kSuiteStatusFile);
    }

    auto runs = collect.takeRuns();
    TextTable table("suite synthesis summary");
    table.setHeader({"workload", "dyn instr", "R", "coverage"});
    for (const auto &r : runs) {
        table.addRow({r.workload.name(),
                      std::to_string(r.profile.dynamicInstructions),
                      std::to_string(r.synthetic.reductionFactor),
                      TextTable::pct(r.synthetic.patternStats.coverage())});
    }
    table.print(std::cout);

    obs::logf(obs::LogLevel::Info,
              "[bsyn] %zu/%zu workloads synthesized on %u threads "
              "in %.2fs%s%s",
              runs.size(), statuses.size(), session.options().threads,
              secs,
              args.output.empty() ? "" : ", clones written to ",
              args.output.c_str());
    if (session.cache().enabled()) {
        auto cs = session.cacheStats();
        obs::logf(obs::LogLevel::Info,
                  "[bsyn] cache: profiles %llu/%llu from cache, clones "
                  "%llu/%llu from cache",
                  static_cast<unsigned long long>(cs.profileHits),
                  static_cast<unsigned long long>(cs.profileHits +
                                                  cs.profileMisses),
                  static_cast<unsigned long long>(cs.synthHits),
                  static_cast<unsigned long long>(cs.synthHits +
                                                  cs.synthMisses));
    }
    return failed ? 1 : 0;
}

int
cmdList(const Args &)
{
    std::printf("suite instances (%zu):\n",
                workloads::mibenchSuite().size());
    std::string last;
    for (const auto &w : workloads::mibenchSuite()) {
        if (w.benchmark != last) {
            std::printf("%s  %s:", last.empty() ? "" : "\n",
                        w.benchmark.c_str());
            last = w.benchmark;
        }
        std::printf(" %s", w.input.c_str());
    }
    std::printf("\n\ngenerator families (instantiate as "
                "family[,knob=value...][,seed=S]):\n");
    for (const auto *family : gen::Registry::global().families()) {
        std::printf("\n  %s — %s\n", family->name().c_str(),
                    family->description().c_str());
        for (const auto &k : family->knobs())
            std::printf("    %-12s default %-8lld range [%lld, %lld]  "
                        "%s\n",
                        k.name.c_str(),
                        static_cast<long long>(k.def),
                        static_cast<long long>(k.min),
                        static_cast<long long>(k.max),
                        k.description.c_str());
        std::printf("    presets: %zu\n", family->presets().size());
    }
    return 0;
}

int
cmdGen(const Args &args)
{
    gen::InstanceSpec spec = gen::parseSpec(args.positional[0]);
    workloads::Workload w = gen::instantiateSpec(spec);
    if (args.output.empty())
        std::fputs(w.source.c_str(), stdout);
    else
        writeFile(args.output, w.source);
    obs::logf(obs::LogLevel::Info,
              "[bsyn] generated %s (%zu bytes)%s%s\n"
              "[bsyn] expected output: %s",
              w.name().c_str(), w.source.size(),
              args.output.empty() ? "" : " -> ", args.output.c_str(),
              w.expectedOutput.c_str());
    return 0;
}

int
cmdFidelity(const Args &args)
{
    // Scope: every Figure-4 instance (unless --only-families), plus
    // every generated instance the --family selection adds.
    auto t0 = std::chrono::steady_clock::now();
    std::vector<workloads::Workload> batch;
    if (!args.onlyFamilies)
        batch = workloads::mibenchSuite();
    auto generated = generatedSelection(args);
    batch.insert(batch.end(), generated.begin(), generated.end());
    double genSecs = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (batch.empty())
        fatal("fidelity: no instances to score — --only-families "
              "without any --family <spec> selects nothing");

    // --shard partitions the *resolved* batch (emptiness was judged on
    // the full batch above: a shard that happens to be empty is fine).
    serve::ShardedBatch sharded = serve::filterShard(batch, args.shard);
    batch = sharded.workloads;
    if (!args.shard.isAll())
        obs::logf(obs::LogLevel::Info,
                  "[bsyn] shard %s: %zu of %zu instances",
                  args.shard.str().c_str(), batch.size(), sharded.total);

    pipeline::Session session(sessionOptions(args, batch.size()));

    gen::FidelityOptions fo;
    fo.synthesis = session.options().synthesis;
    if (args.levelSet)
        fo.timingLevel = args.level;
    fo.timing = !args.noTiming;

    auto report = gen::scoreFidelity(session, batch, fo);
    report.generationSecs = genSecs;

    // Sharded runs carry global batch indices so `bsyn merge
    // --fidelity` can restore full-batch instance (and summary
    // accumulation) order.
    for (size_t k = 0; k < report.instances.size(); ++k)
        report.instances[k].index = sharded.indices[k];

    // --results-only drops the bench (wall-clock) half, leaving the
    // deterministic report a merge can reproduce byte-identically.
    Json j = args.resultsOnly ? report.resultsJson() : report.toJson();
    if (!args.shard.isAll())
        serve::makeFidelityShard(sharded).writeTo(j);
    std::string text = j.dump(2) + "\n";
    if (args.output.empty())
        std::fputs(text.c_str(), stdout);
    else
        writeFile(args.output, text);

    size_t failed = 0;
    TextTable table("clone fidelity (relative error per instance)");
    table.setHeader({"workload", "mean", "max", "phases",
                     "ph.worst", "worst metric"});
    for (const auto &inst : report.instances) {
        if (!inst.ok) {
            ++failed;
            obs::logf(obs::LogLevel::Warn, "[bsyn] FAILED %-22s %s",
                      inst.workload.c_str(), inst.error.c_str());
            continue;
        }
        const gen::MetricScore *worst = nullptr;
        for (const auto &m : inst.metrics)
            if (!worst || m.error > worst->error)
                worst = &m;
        table.addRow(
            {inst.workload, strprintf("%.3f", inst.meanError),
             strprintf("%.3f", inst.maxError),
             strprintf("%llu/%llu",
                       static_cast<unsigned long long>(
                           inst.originalPhases),
                       static_cast<unsigned long long>(
                           inst.clonePhases)),
             strprintf("%.3f", inst.phaseWorstMixError),
             worst ? worst->metric : "-"});
        if (args.showPhases) {
            for (const auto &ps : inst.phaseScores)
                obs::logf(obs::LogLevel::Info,
                          "[bsyn]   %-22s phase %zu -> clone %zu: mix "
                          "%.3f, miss %.3f, taken %.3f",
                          inst.workload.c_str(), ps.original, ps.clone,
                          ps.mixError, ps.missRateError,
                          ps.takenRateError);
        }
    }
    table.print(std::cout);
    obs::logf(obs::LogLevel::Info,
              "[bsyn] scored %zu/%zu instances in %.2fs%s%s",
              report.instances.size() - failed, report.instances.size(),
              report.totalSecs,
              args.output.empty() ? "" : ", report written to ",
              args.output.c_str());
    return failed ? 1 : 0;
}

int
cmdMerge(const Args &args)
{
    if (args.mergeFidelity) {
        std::vector<Json> reports;
        for (const auto &path : args.positional)
            reports.push_back(Json::parse(readFile(path)));
        Json merged = serve::mergeFidelityReports(reports);
        writeFile(args.output, merged.dump(2) + "\n");
        obs::logf(obs::LogLevel::Info,
                  "[bsyn] merged %zu fidelity shards (%zu instances) "
                  "into %s",
                  reports.size(), merged.get("instances").size(),
                  args.output.c_str());
        return 0;
    }

    serve::MergeResult res =
        serve::mergeSuiteDirs(args.output, args.positional);
    obs::logf(obs::LogLevel::Info,
              "[bsyn] merged %zu shards into %s: %zu workloads "
              "(%zu failed), %zu artifact files",
              res.shards, args.output.c_str(), res.workloads, res.failed,
              res.files);
    return res.failed ? 1 : 0;
}

/** The worker the signal handler must reach (exactly one per serve
 *  process; requestStop is a single atomic store, so it is safe in a
 *  handler context). */
serve::Worker *gServeWorker = nullptr;

extern "C" void
serveSignalHandler(int)
{
    if (gServeWorker)
        gServeWorker->requestStop();
}

int
cmdServe(const Args &args)
{
    serve::WorkerOptions wo;
    wo.spoolDir = args.spool;
    wo.cacheDir = args.effectiveCacheDir();
    wo.threads = args.threads;
    wo.maxJobs = args.maxJobs;
    wo.drain = args.drain;
    wo.pollMs = static_cast<unsigned>(args.pollMs);
    wo.pollMaxMs = static_cast<unsigned>(args.pollMaxMs);
    wo.reclaimAfterS = args.reclaimAfterS;
    wo.verbose = true;
    serve::Worker worker(wo);

    // SIGINT/SIGTERM become a graceful drain request: the in-flight
    // job still finishes and publishes its status.
    gServeWorker = &worker;
    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveSignalHandler);

    obs::logf(obs::LogLevel::Info, "[bsyn] serving %s%s%s",
              args.spool.c_str(), wo.cacheDir.empty() ? "" : ", cache ",
              wo.cacheDir.c_str());
    serve::WorkerStats stats = worker.run();
    gServeWorker = nullptr;

    obs::logf(obs::LogLevel::Info,
              "[bsyn] served %llu jobs (%llu ok, %llu failed, "
              "%llu claims lost, %llu reclaimed)",
              static_cast<unsigned long long>(stats.processed),
              static_cast<unsigned long long>(stats.succeeded),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.lostClaims),
              static_cast<unsigned long long>(stats.reclaimed));
    // Failed *jobs* are the submitters' problem, not the worker's: a
    // worker that survived them exits 0.
    return 0;
}

int
cmdSubmit(const Args &args)
{
    serve::Spool spool(args.spool);
    serve::Job job;
    job.kind = args.positional[0];
    job.workload = args.positional[1];
    job.seed = args.seed;
    job.targetInstr = args.targetInstr;
    job.timing = args.timing;
    if (!args.jobId.empty()) {
        job.id = args.jobId;
    } else {
        // Derive a readable default id from kind + workload, squashing
        // everything filename-unsafe ("/", "=", ",") to '-'.
        std::string base = job.kind + "-" + job.workload;
        for (char &c : base)
            if (!std::isalnum(static_cast<unsigned char>(c)) &&
                c != '.' && c != '_' && c != '-')
                c = '-';
        job.id = spool.freeId(base);
    }
    spool.submit(job);
    // The id goes to stdout so scripts can capture it; with --wait the
    // status JSON owns stdout instead.
    std::fprintf(args.wait ? stderr : stdout, "%s\n", job.id.c_str());
    if (!args.wait)
        return 0;

    // Fail fast when the result can no longer arrive instead of
    // burning the whole timeout: exit 3 distinguishes "no worker will
    // ever take this" from a job that genuinely failed (1).
    Json status;
    switch (serve::waitForResult(spool, job.id, status,
                                 double(args.timeoutS))) {
    case serve::WaitOutcome::Done:
        break;
    case serve::WaitOutcome::Stopped:
        obs::logf(obs::LogLevel::Error,
                  "bsyn: job '%s' will never run: the spool's stop "
                  "flag is set and the job is still unclaimed",
                  job.id.c_str());
        return 3;
    case serve::WaitOutcome::Vanished:
        obs::logf(obs::LogLevel::Error,
                  "bsyn: job '%s' vanished from the spool without "
                  "a result",
                  job.id.c_str());
        return 3;
    case serve::WaitOutcome::Timeout:
        fatal("submit: timed out after %llus waiting for job '%s'",
              static_cast<unsigned long long>(args.timeoutS),
              job.id.c_str());
    }
    std::string text = status.dump(2) + "\n";
    std::fputs(text.c_str(), stdout);
    return status.get("ok").asBool() ? 0 : 1;
}

int
cmdReplay(const Args &args)
{
    replay::ReplayOptions ro;
    ro.scheduleSpec = args.schedule;
    ro.mixSpec = args.mix;
    ro.durationS = args.durationS;
    ro.seed = args.seed;
    ro.threads = args.threads;
    ro.population = args.population;
    ro.targetInstr = args.targetInstr;
    ro.cacheDir = args.effectiveCacheDir();
    ro.spoolDir = args.spool;
    ro.spoolWorkers = args.spoolWorkers;
    ro.spoolTimeoutS = double(args.timeoutS);

    replay::ReplayReport report = replay::runReplay(ro);

    Json j = args.resultsOnly ? report.resultsJson() : report.toJson();
    std::string text = j.dump(2) + "\n";
    if (args.output.empty())
        std::fputs(text.c_str(), stdout);
    else
        writeFile(args.output, text);

    TextTable table("traffic replay latency");
    table.setHeader(
        {"stage", "count", "p50 ms", "p99 ms", "p99.9 ms", "max ms"});
    for (const auto &s : report.stages) {
        if (s.count == 0)
            continue;
        table.addRow({s.stage, std::to_string(s.count),
                      strprintf("%.2f", s.p50Ms),
                      strprintf("%.2f", s.p99Ms),
                      strprintf("%.2f", s.p999Ms),
                      strprintf("%.2f", s.maxMs)});
    }
    table.print(std::cout);

    obs::logf(obs::LogLevel::Info,
              "[bsyn] %zu arrivals (%llu ok, %llu failed) over %zu "
              "instances in %.2fs: offered %.1f/s, achieved %.1f/s"
              "%s%s",
              report.arrivals.size(),
              static_cast<unsigned long long>(report.okCount),
              static_cast<unsigned long long>(report.failCount),
              report.instanceNames.size(), report.elapsedS,
              report.offeredRate, report.achievedRate,
              args.output.empty() ? "" : ", report written to ",
              args.output.c_str());
    return report.failCount ? 1 : 0;
}

/** Every command; a '\n' in a synopsis is where `bsyn help` wraps. */
const Command kCommands[] = {
    {"run", "<prog.c> [-O0..-O3] [--target x86|x86_64|ia64]", cmdRun},
    {"profile",
     "<prog.c> -o <profile.json> [--phase-slices N] [--phases]\n"
     "[--cache-dir D] [--no-cache]",
     cmdProfile},
    {"synth",
     "<profile.json> -o <clone.c> [--target-instr N] [--seed S]\n"
     "[--no-phase-synth] [--cache-dir D] [--no-cache]",
     cmdSynth},
    {"compare", "<a.c> <b.c>", cmdCompare},
    {"time", "<prog.c> [-O0..-O3]", cmdTime},
    {"suite",
     "[-o <dir>] [--threads N] [--seed S] [--target-instr N]\n"
     "[--family <spec>] [--gen-count N] [--shard i/N]\n"
     "[--cache-dir D] [--no-cache]",
     cmdSuite},
    {"list", "", cmdList},
    {"gen", "<family>[,knob=v...][,seed=S] [-o prog.c]", cmdGen},
    {"fidelity",
     "[-o report.json] [--family <spec>] [--gen-count N]\n"
     "[--only-families] [--seed S] [--target-instr N] [-O0..-O3]\n"
     "[--no-timing] [--phase-slices N] [--no-phase-synth] [--phases]\n"
     "[--threads N] [--shard i/N] [--results-only]\n"
     "[--cache-dir D] [--no-cache]",
     cmdFidelity},
    {"merge", "-o <out> <in>... [--fidelity]", cmdMerge},
    {"serve",
     "--spool <dir> [--cache-dir D] [--no-cache] [--threads N]\n"
     "[--drain] [--max-jobs N] [--poll-ms N] [--poll-max-ms N]\n"
     "[--reclaim-after SECS]",
     cmdServe},
    {"submit",
     "<profile|synth|fidelity> <workload> --spool <dir>\n"
     "[--id I] [--seed S] [--target-instr N] [--timing] [--wait]\n"
     "[--timeout SECS]",
     cmdSubmit},
    {"replay",
     "--mix <spec> [--schedule <spec>] [--duration SECS]\n"
     "[--seed S] [--threads N] [--population N] [--target-instr N]\n"
     "[-o traffic.json] [--results-only] [--spool <dir>]\n"
     "[--workers N] [--timeout SECS] [--cache-dir D] [--no-cache]",
     cmdReplay},
};

/** Print "<lead><name> <synopsis>", indenting each continuation line
 *  under the synopsis's first token. */
void
printSynopsis(FILE *out, const std::string &lead, const Command &cmd)
{
    std::string text = lead + cmd.name;
    const std::string indent(text.size() + 1, ' ');
    if (*cmd.synopsis)
        text = text + " " + cmd.synopsis;
    for (size_t at = text.find('\n'); at != std::string::npos;
         at = text.find('\n', at + 1))
        text.insert(at + 1, indent);
    std::fprintf(out, "%s\n", text.c_str());
}

void
usage(FILE *out)
{
    std::fprintf(out, "bsyn — benchmark synthesis for architecture and "
                      "compiler exploration\n\n");
    for (const auto &cmd : kCommands)
        printSynopsis(out, "  bsyn ", cmd);
    std::fprintf(
        out,
        "  bsyn help | --help | -h\n"
        "\n"
        "replay schedules are 'constant,rate=R', "
        "'bursty,rate=R[,on_ms=A,off_ms=B]'\nor "
        "'ramp,rate=R0,end_rate=R1' (all accept jitter=1 for Poisson "
        "arrivals);\na mix is 'spec[:weight][;spec...]' with optional "
        "'@end|' mode switches,\nwhere spec is a family "
        "('fp_kernel,seed=2') or instance ('crc32/small').\n"
        "an idle worker backs off exponentially from --poll-ms to "
        "--poll-max-ms;\n--reclaim-after moves claims older than SECS "
        "back to new/ (crash\nrecovery).\n"
        "\n"
        "--shard i/N (1-based) partitions the resolved batch by a stable "
        "hash of\neach workload name; bsyn merge reassembles per-shard "
        "outputs into the\nunsharded artifact, byte-identical. fidelity "
        "--results-only writes the\ndeterministic (mergeable) half of "
        "the report only.\n"
        "profile and fidelity slice the run every --phase-slices "
        "retired\ninstructions (0 disables) and detect program phases; "
        "--phases prints\nthe per-phase detail and --no-phase-synth "
        "clones from the aggregate\nprofile only.\n"
        "a --family <spec> is 'all', 'all-presets' (one instance of "
        "every\npublished preset) or 'name[,knob=value...][,seed=S]' "
        "(repeatable);\nbsyn list prints the registered families and "
        "their knobs.\n"
        "BSYN_CACHE_DIR sets the default --cache-dir; --no-cache "
        "disables the cache.\n"
        "every command accepts --trace <file> (write a Chrome "
        "trace-event JSON\nof the run's stage spans; BSYN_TRACE sets "
        "the default), --log-level\ndebug|info|warn|error|silent "
        "(BSYN_LOG) and --quiet (errors only).\n"
        "\n"
        "exit codes: 0 success; 1 a run failed, compare found "
        "similarity or a\nsubmitted job failed; 2 misuse; 3 submit "
        "--wait can no longer get a result.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(stderr);
        return 2;
    }
    const std::string name = argv[1];
    if (name == "--help" || name == "-h" || name == "help") {
        usage(stdout);
        return 0;
    }
    const Command *cmd = nullptr;
    for (const auto &c : kCommands)
        if (name == c.name)
            cmd = &c;
    if (!cmd) {
        std::fprintf(stderr, "bsyn: unknown command '%s'\n", name.c_str());
        usage(stderr);
        return 2;
    }

    // Misuse (an unknown flag, a wrong argument count, a missing
    // required flag, a malformed value) prints the command's synopsis
    // and exits 2; failures while carrying out a valid request exit 1.
    Args args;
    try {
        args = parseArgs(*cmd, argc, argv);
    } catch (const FatalError &e) {
        // Misuse reads "bsyn: <what went wrong>", without fatal()'s tag.
        std::string what = e.what();
        if (startsWith(what, "fatal: "))
            what.erase(0, strlen("fatal: "));
        std::fprintf(stderr, "bsyn: %s\n", what.c_str());
        printSynopsis(stderr, "usage: bsyn ", *cmd);
        return 2;
    }

    // --quiet keeps errors; --log-level names any threshold exactly.
    if (args.quiet)
        obs::setLogLevel(obs::LogLevel::Error);
    else if (!args.logLevel.empty())
        obs::setLogLevel(obs::parseLogLevel(args.logLevel));
    if (!args.traceFile.empty())
        obs::Trace::begin(args.traceFile);

    int rc;
    try {
        rc = cmd->run(args);
    } catch (const FatalError &e) {
        obs::logf(obs::LogLevel::Error, "%s", e.what());
        rc = 1;
    }

    // The trace flushes on every exit path, error included — a failed
    // run's trace is the one worth looking at.
    try {
        std::string path = obs::Trace::end();
        if (!path.empty())
            obs::logf(obs::LogLevel::Info, "[bsyn] trace written to %s",
                      path.c_str());
    } catch (const FatalError &e) {
        obs::logf(obs::LogLevel::Error, "%s", e.what());
        if (rc == 0)
            rc = 1;
    }
    return rc;
}

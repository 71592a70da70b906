/**
 * @file
 * End-to-end checks of the bsyn command line, run against the built
 * binary: help lists every command, misuse (an unknown command, a
 * missing argument or required flag, a flag the command does not read)
 * exits 2, and a small run -> profile -> synth round trip exits 0.
 */

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace
{

namespace fs = std::filesystem;

/** Exit code of `bsyn <args>` (stderr dropped); @p out, when given,
 *  receives its stdout. */
int
bsyn(const std::string &args, std::string *out = nullptr)
{
    std::string cmd =
        std::string(BSYN_CLI_PATH) + " " + args + " 2>/dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return -1;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        if (out)
            out->append(buf, n);
    int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** A scratch directory holding one small MiniC program, prog.c. */
class Cli : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("bsyn_test_cli_" + std::to_string(getpid()));
        fs::create_directories(dir_);
        std::ofstream(path("prog.c"))
            << "int main() {\n"
               "  int i; int s; s = 0;\n"
               "  for (i = 0; i < 1000; i = i + 1) { s = s + i * 3; }\n"
               "  printf(\"sum=%d\\n\", s);\n"
               "  return 0;\n"
               "}\n";
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    fs::path dir_;
};

TEST(CliHelp, ListsEveryCommand)
{
    const char *commands[] = {"run",     "profile", "synth",  "compare",
                              "time",    "suite",   "list",   "gen",
                              "fidelity", "merge",  "serve",  "submit",
                              "replay"};
    for (const char *flag : {"help", "--help", "-h"}) {
        std::string out;
        EXPECT_EQ(bsyn(flag, &out), 0) << flag;
        for (const char *cmd : commands) {
            std::string line = std::string("\n  bsyn ") + cmd;
            EXPECT_TRUE(out.find(line + " ") != std::string::npos ||
                        out.find(line + "\n") != std::string::npos)
                << flag << " does not list " << cmd;
        }
    }
}

TEST(CliHelp, UnknownCommandExits2)
{
    EXPECT_EQ(bsyn("no-such-command"), 2);
    EXPECT_EQ(bsyn(""), 2);
}

TEST_F(Cli, MissingArgumentOrRequiredFlagExits2)
{
    const std::string prog = path("prog.c");
    for (const std::string &args :
         {std::string("profile"), "synth " + path("p.json"),
          "compare " + prog, std::string("replay"),
          std::string("submit synth crc32/small"), std::string("merge x"),
          std::string("gen")})
        EXPECT_EQ(bsyn(args), 2) << args;
}

TEST_F(Cli, FlagTheCommandDoesNotReadExits2)
{
    const std::string prog = path("prog.c");
    for (const std::string &args :
         {std::string("suite --phase-slices 0"),
          std::string("suite --no-phase-synth"),
          "run " + prog + " --spool x", "time " + prog + " --target ia64",
          "profile " + prog + " -o " + path("p.json") + " --seed 5",
          std::string("list --threads 2")})
        EXPECT_EQ(bsyn(args), 2) << args;
}

TEST_F(Cli, RunProfileSynthRoundTrip)
{
    std::string out;
    EXPECT_EQ(bsyn("run " + path("prog.c") + " -O2 --quiet", &out), 0);
    EXPECT_EQ(out, "sum=1498500\n");
    EXPECT_EQ(bsyn("profile " + path("prog.c") + " -o " + path("p.json") +
                   " --quiet"),
              0);
    EXPECT_EQ(bsyn("synth " + path("p.json") + " -o " + path("clone.c") +
                   " --quiet"),
              0);
    EXPECT_GT(fs::file_size(path("clone.c")), 0u);
    EXPECT_EQ(bsyn("run " + path("clone.c") + " --quiet"), 0);
}

TEST_F(Cli, CompareOfIdenticalFilesExits1)
{
    const std::string prog = path("prog.c");
    EXPECT_EQ(bsyn("compare " + prog + " " + prog), 1);
}

} // namespace

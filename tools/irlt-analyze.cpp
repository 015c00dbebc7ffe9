//===- tools/irlt-analyze.cpp - The static diagnostic & lint driver -------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// irlt-analyze: run the static diagnostic and lint engine
/// (src/analysis/, docs/ANALYSIS.md) over loop nests and their
/// transformation scripts without executing anything.
///
///   irlt-analyze PATH... [options]
///     PATH                a .nest file or a directory scanned for
///                         *.nest files; a nest's script is the
///                         sibling <stem>.script when present
///     -s, --script FILE   explicit script for a single nest argument
///     --no-lint           error-class rules only (skip warnings)
///     --fixit             print the fixed sequence when one applies
///     --cross-check-deps  diff the production dependence analyzer
///                         against the first-principles fm-exact backend
///                         on each nest and report W205/W206 findings
///                         (docs/DEPENDENCE.md); off by default - the
///                         exact backend is much slower
///     --rules             print the rule registry and exit
///     --json              one versioned ndjson record per input (the
///                         shared schema of docs/API.md); the header
///                         carries the rule registry version
///                         (rules_version) so triage can tell which
///                         rule set produced the report
///
/// Exit status: 0 when every input analyzed clean of error-class
/// findings (warnings do not fail), 2 when any error-class finding or
/// script parse error was reported, 1 on tool/usage errors.
///
//===----------------------------------------------------------------------===//

#include "api/Pipeline.h"
#include "support/FileIO.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

using namespace irlt;

namespace {

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s PATH... [-s SCRIPTFILE] [--no-lint] [--fixit]\n"
               "          [--cross-check-deps] [--rules] [--json]\n"
               "PATH is a .nest file or a directory of *.nest files; a "
               "sibling <stem>.script\nis analyzed with its nest when "
               "present.\n"
               "exit status: 0 clean, 2 error-class findings, 1 error\n",
               Argv0);
}

struct Input {
  std::string NestPath;
  std::string ScriptPath; ///< empty when the nest has no script
};

/// Expands a path argument into nest/script pairs; directories are
/// scanned non-recursively and sorted for deterministic output.
bool expandPath(const std::string &Path, std::vector<Input> &Out) {
  namespace fs = std::filesystem;
  std::error_code EC;
  if (fs::is_directory(Path, EC)) {
    std::vector<std::string> Nests;
    for (const fs::directory_entry &E : fs::directory_iterator(Path, EC))
      if (E.is_regular_file() && E.path().extension() == ".nest")
        Nests.push_back(E.path().string());
    std::sort(Nests.begin(), Nests.end());
    for (const std::string &N : Nests) {
      Input I;
      I.NestPath = N;
      std::string Sibling = fs::path(N).replace_extension(".script").string();
      if (fs::exists(Sibling, EC))
        I.ScriptPath = Sibling;
      Out.push_back(std::move(I));
    }
    return true;
  }
  if (!fs::is_regular_file(Path, EC))
    return false;
  Input I;
  I.NestPath = Path;
  std::string Sibling =
      fs::path(Path).replace_extension(".script").string();
  if (Sibling != Path && fs::exists(Sibling, EC))
    I.ScriptPath = Sibling;
  Out.push_back(std::move(I));
  return true;
}

void printRules() {
  std::printf("%-6s %-8s %-62s %s\n", "rule", "severity", "title",
              "citation");
  for (const analysis::RuleInfo &R : analysis::ruleRegistry())
    std::printf("%-6s %-8s %-62s %s\n", R.Id,
                analysis::severityName(R.Severity), R.Title, R.Citation);
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Paths;
  std::string ScriptOverride;
  bool Lint = true, Fixit = false, JsonMode = false;
  bool CrossCheckDeps = false;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "-s" || A == "--script") {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs an argument\n", A.c_str());
        return 1;
      }
      ScriptOverride = argv[++I];
    } else if (A == "--no-lint") {
      Lint = false;
    } else if (A == "--fixit") {
      Fixit = true;
    } else if (A == "--cross-check-deps") {
      CrossCheckDeps = true;
    } else if (A == "--json") {
      JsonMode = true;
    } else if (A == "--rules") {
      printRules();
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      usage(argv[0]);
      return 1;
    } else {
      Paths.push_back(A);
    }
  }
  if (Paths.empty()) {
    usage(argv[0]);
    return 1;
  }
  if (!ScriptOverride.empty() && Paths.size() != 1) {
    std::fprintf(stderr,
                 "error: --script needs exactly one nest argument\n");
    return 1;
  }

  std::vector<Input> Inputs;
  for (const std::string &P : Paths) {
    if (!expandPath(P, Inputs)) {
      std::fprintf(stderr, "error: cannot read '%s'\n", P.c_str());
      return 1;
    }
  }
  if (!ScriptOverride.empty() && Inputs.size() == 1)
    Inputs.front().ScriptPath = ScriptOverride;

  api::Pipeline P;
  analysis::AnalysisOptions AO;
  AO.Lint = Lint;
  AO.CrossCheckDeps = CrossCheckDeps;

  unsigned TotalErrors = 0, TotalWarnings = 0;
  for (const Input &In : Inputs) {
    std::string Source;
    if (!readFile(In.NestPath, Source)) {
      std::fprintf(stderr, "error: cannot read '%s'\n", In.NestPath.c_str());
      return 1;
    }
    ErrorOr<LoopNest> NestOr = P.loadNest(Source);
    if (!NestOr) {
      std::fprintf(stderr, "%s: %s\n", In.NestPath.c_str(),
                   NestOr.message().c_str());
      return 1;
    }
    LoopNest Nest = NestOr.take();

    std::string Script;
    if (!In.ScriptPath.empty() && !readFile(In.ScriptPath, Script)) {
      std::fprintf(stderr, "error: cannot read '%s'\n",
                   In.ScriptPath.c_str());
      return 1;
    }

    json::JsonWriter W;
    if (JsonMode) {
      json::beginToolRecord(W, "irlt-analyze");
      W.field("rules_version",
              static_cast<uint64_t>(analysis::ruleRegistryVersion()));
      W.field("nest", In.NestPath);
      if (!In.ScriptPath.empty())
        W.field("script", In.ScriptPath);
    }

    // A script that does not parse is reported through the same severity
    // model: the parser's per-directive diagnostics count as errors.
    ErrorOr<TransformSequence> SeqOr =
        P.parseScript(Script, Nest.numLoops());
    if (!SeqOr) {
      std::vector<Diag> Diags = SeqOr.takeDiags();
      TotalErrors += static_cast<unsigned>(Diags.size());
      if (JsonMode) {
        W.field("ok", true);
        W.field("parse_ok", false);
        W.key("parse_errors").beginArray();
        for (const Diag &D : Diags)
          W.value(D.str());
        W.endArray();
        W.endObject();
        std::printf("%s\n", W.take().c_str());
      } else {
        std::printf("%s: script does not parse\n", In.NestPath.c_str());
        for (const Diag &D : Diags)
          std::printf("error: %s\n", D.str().c_str());
      }
      continue;
    }
    TransformSequence Seq = SeqOr.take();

    analysis::AnalysisReport AR = P.analyze(Seq, Nest, AO);
    TotalErrors += AR.errorCount();
    TotalWarnings += AR.warningCount();

    if (JsonMode) {
      W.field("ok", true);
      W.field("parse_ok", true);
      W.field("sequence", Seq.str());
      W.key("analysis");
      analysis::writeReport(W, AR);
      W.endObject();
      std::printf("%s\n", W.take().c_str());
    } else {
      std::printf("%s: %u error(s), %u warning(s)\n", In.NestPath.c_str(),
                  AR.errorCount(), AR.warningCount());
      for (const analysis::Finding &F : AR.Findings)
        std::printf("%s: %s\n", analysis::severityName(F.Severity),
                    F.toDiag().str().c_str());
      if (Fixit && AR.Fixed)
        std::printf("fixit: %s\n", AR.Fixed->str().c_str());
    }
  }

  if (!JsonMode && Inputs.size() > 1)
    std::printf("analyzed %zu nest(s): %u error(s), %u warning(s)\n",
                Inputs.size(), TotalErrors, TotalWarnings);
  return TotalErrors ? 2 : 0;
}

//===- tools/gprof_tool.cpp - The gprof post-processor CLI ----------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line face of the post-processor: reads an image and one or
/// more gmon files (several are summed, reproducing multi-run profiles),
/// runs the analysis, and prints the flat profile and the call graph
/// profile.  Options mirror the historical tool: -b brief, -c static
/// arcs, -z zero-usage rows, -k arc deletion, -f/-e listing filters, -s
/// write the summed data back out.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/Annotate.h"
#include "core/ContextTree.h"
#include "core/DotExporter.h"
#include "core/FlatPrinter.h"
#include "core/GraphPrinter.h"
#include "gmon/GmonFile.h"
#include "support/CommandLine.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/Telemetry.h"
#include "support/TraceWriter.h"

#include <cstdio>

using namespace gprof;

int main(int Argc, char **Argv) {
  OptionParser Opts("gprof",
                    "display call graph profile data for a TLX image");
  Opts.setPositionalHelp("image.tlx [gmon.out ...]");
  Opts.addFlag("brief", 'b', "suppress field descriptions");
  Opts.addFlag("static-arcs", 'c',
               "add statically discovered arcs with count zero");
  Opts.addFlag("zero", 'z', "show zero-time zero-call routines as rows");
  Opts.addOption("delete-arc", 'k', "FROM/TO",
                 "delete the arc FROM -> TO from the analysis (repeatable)");
  Opts.addOption("only", 'f', "NAME",
                 "print graph entries only for NAME (repeatable)");
  Opts.addOption("exclude", 'e', "NAME",
                 "omit NAME's graph entry (repeatable)");
  Opts.addOption("exclude-time", 'E', "NAME",
                 "drop NAME's sampled time from the whole analysis "
                 "(implies -e; repeatable)");
  Opts.addOption("dot", 0, "FILE",
                 "write the analyzed call graph as Graphviz DOT to FILE");
  Opts.addOption("annotate", 'A', "SOURCE",
                 "print SOURCE annotated with per-line time and calls");
  Opts.addOption("break-cycles", 0, "N",
                 "heuristically delete up to N cycle-closing arcs");
  Opts.addOption("sum", 's', "FILE", "write the summed profile data to FILE");
  Opts.addFlag("tolerant", 0,
               "salvage whole records from truncated gmon files instead of "
               "rejecting them (damage summary goes to stderr)");
  Opts.addFlag("flat-only", 0, "print only the flat profile");
  Opts.addFlag("graph-only", 0, "print only the call graph profile");
  Opts.addFlag("no-index", 0, "omit the index-by-name table");
  Opts.addFlag("contexts", 0,
               "print the calling-context profile (the gmon file must come "
               "from a tlrun --contexts run)");
  Opts.addOption("context-filter", 0, "NAME",
                 "list only NAME's contexts (repeatable; implies --contexts)");
  Opts.addOption("context-top", 0, "N",
                 "contexts listed per routine in --contexts (default 5)");
  Opts.addOptionalValueOption(
      "prop-error", "FILE",
      "report per-routine propagation error (propagated vs exact inclusive "
      "time from the context tree); with FILE, also write it as JSON");
  telemetry::addStatsOption(Opts);
  Opts.addOption("trace-out", 0, "FILE",
                 "write phase spans as Chrome trace-event JSON to FILE "
                 "(load in chrome://tracing or Perfetto)");

  if (Error E = Opts.parse(Argc, Argv)) {
    std::fprintf(stderr, "gprof: %s\n", E.message().c_str());
    return 1;
  }
  if (Opts.hasFlag("help")) {
    std::printf("%s", Opts.helpText().c_str());
    return 0;
  }
  if (Opts.positional().empty()) {
    std::fprintf(stderr, "gprof: expected an image path\n");
    return 1;
  }

  auto Img = Image::loadFromFile(Opts.positional().front());
  if (!Img) {
    std::fprintf(stderr, "gprof: %s\n", Img.message().c_str());
    return 1;
  }

  std::vector<std::string> GmonPaths(Opts.positional().begin() + 1,
                                     Opts.positional().end());
  if (GmonPaths.empty())
    GmonPaths.push_back("gmon.out");
  GmonReadOptions ReadOpts;
  ReadOpts.Tolerant = Opts.hasFlag("tolerant");
  std::vector<GmonFileSalvage> Salvages;
  auto Data = readAndSumGmonFiles(GmonPaths, ReadOpts,
                                  ReadOpts.Tolerant ? &Salvages : nullptr);
  if (!Data) {
    std::fprintf(stderr, "gprof: %s\n", Data.message().c_str());
    return 1;
  }
  for (const GmonFileSalvage &S : Salvages)
    std::fprintf(stderr,
                 "gprof: %s: damaged (%s); salvaged %llu bucket(s) and "
                 "%llu arc(s), dropped %llu bucket(s) and %llu arc(s)\n",
                 S.Path.c_str(), S.Salvage.Note.c_str(),
                 static_cast<unsigned long long>(S.Salvage.SalvagedBuckets),
                 static_cast<unsigned long long>(S.Salvage.SalvagedArcs),
                 static_cast<unsigned long long>(S.Salvage.DroppedBuckets),
                 static_cast<unsigned long long>(S.Salvage.DroppedArcs));

  if (auto SumPath = Opts.getValue("sum")) {
    if (Error E = writeGmonFile(*SumPath, *Data)) {
      std::fprintf(stderr, "gprof: %s\n", E.message().c_str());
      return 1;
    }
  }

  AnalyzerOptions AO;
  AO.UseStaticArcs = Opts.hasFlag("static-arcs");
  for (const std::string &Spec : Opts.getValues("delete-arc")) {
    std::vector<std::string> Parts = splitString(Spec, '/');
    if (Parts.size() != 2 || Parts[0].empty() || Parts[1].empty()) {
      std::fprintf(stderr,
                   "gprof: -k expects FROM/TO, got '%s'\n", Spec.c_str());
      return 1;
    }
    AO.DeleteArcs.emplace_back(Parts[0], Parts[1]);
  }
  AO.ExcludeTimeOf = Opts.getValues("exclude-time");
  if (auto Bound = Opts.getValue("break-cycles")) {
    unsigned long long N;
    if (!parseUInt64(*Bound, N)) {
      std::fprintf(stderr, "gprof: invalid --break-cycles value '%s'\n",
                   Bound->c_str());
      return 1;
    }
    AO.AutoBreakCycleBound = static_cast<unsigned>(N);
  }

  std::optional<std::string> TracePath = Opts.getValue("trace-out");
  if (TracePath)
    telemetry::Registry::instance().enableSpans(true);
  telemetry::Registry::instance().setCurrentThreadName("main");

  // Emits the telemetry surfaces once the pipeline has run.  Returns
  // false on I/O failure.
  auto EmitTelemetry = [&]() -> bool {
    if (TracePath) {
      TraceWriter W = TraceWriter::fromTelemetry("gprof");
      if (Error E = W.writeFile(*TracePath)) {
        std::fprintf(stderr, "gprof: %s\n", E.message().c_str());
        return false;
      }
    }
    if (Error E = telemetry::emitStatsIfRequested(Opts, "gprof_stats")) {
      std::fprintf(stderr, "gprof: %s\n", E.message().c_str());
      return false;
    }
    return true;
  };

  auto Report = analyzeImageProfile(*Img, *Data, AO);
  if (!Report) {
    std::fprintf(stderr, "gprof: %s\n", Report.message().c_str());
    return 1;
  }

  FlatPrintOptions FP;
  FP.ShowZeroUsage = Opts.hasFlag("zero");
  FP.Brief = Opts.hasFlag("brief");

  GraphPrintOptions GP;
  GP.Brief = Opts.hasFlag("brief");
  GP.OnlyFunctions = Opts.getValues("only");
  GP.ExcludeFunctions = Opts.getValues("exclude");
  for (const std::string &Name : Opts.getValues("exclude-time"))
    GP.ExcludeFunctions.push_back(Name); // -E implies -e.
  GP.PrintIndex = !Opts.hasFlag("no-index");

  if (auto DotPath = Opts.getValue("dot")) {
    if (Error E = writeFileText(*DotPath, exportDot(*Report))) {
      std::fprintf(stderr, "gprof: %s\n", E.message().c_str());
      return 1;
    }
  }

  if (auto SourcePath = Opts.getValue("annotate")) {
    auto SourceText = readFileText(*SourcePath);
    if (!SourceText) {
      std::fprintf(stderr, "gprof: %s\n", SourceText.message().c_str());
      return 1;
    }
    auto Annotated = annotateSource(*Img, *SourceText, *Data);
    std::printf("%s", printAnnotatedSource(Annotated).c_str());
    return EmitTelemetry() ? 0 : 1;
  }

  // The context-tree surfaces.  --contexts replaces the flat/graph
  // listings (like --flat-only, it selects what to print); --prop-error
  // appends its report to whatever else was printed.
  ContextPrintOptions CPO;
  CPO.FilterRoutines = Opts.getValues("context-filter");
  const bool WantContexts =
      Opts.hasFlag("contexts") || !CPO.FilterRoutines.empty();
  std::optional<std::string> PropErrorDest = Opts.getValue("prop-error");
  SymbolTable CtxSyms;
  std::optional<ContextTree> Tree;
  if (WantContexts || PropErrorDest) {
    if (auto Top = Opts.getValue("context-top")) {
      unsigned long long N;
      if (!parseUInt64(*Top, N) || N == 0) {
        std::fprintf(stderr, "gprof: invalid --context-top value '%s'\n",
                     Top->c_str());
        return 1;
      }
      CPO.TopContexts = static_cast<unsigned>(N);
    }
    CtxSyms = SymbolTable::fromImage(*Img);
    auto Built = ContextTree::build(*Data, CtxSyms);
    if (!Built) {
      std::fprintf(stderr, "gprof: %s\n", Built.message().c_str());
      return 1;
    }
    Tree.emplace(std::move(*Built));
  }

  if (WantContexts) {
    std::printf("%s", printContexts(*Tree, CPO).c_str());
  } else {
    if (!Opts.hasFlag("graph-only")) {
      std::printf("%s", printFlatProfile(*Report, FP).c_str());
      std::printf("\n");
    }
    if (!Opts.hasFlag("flat-only"))
      std::printf("%s", printCallGraph(*Report, GP).c_str());
  }

  if (PropErrorDest) {
    PropagationErrorReport PE = propagationError(*Report, *Tree);
    if (WantContexts)
      std::printf("\n");
    std::printf("%s", printPropagationError(PE).c_str());
    if (!PropErrorDest->empty() && *PropErrorDest != "-") {
      std::string Program = Opts.positional().front();
      if (Error E = writeFileText(
              *PropErrorDest, propagationErrorJson(PE, Program))) {
        std::fprintf(stderr, "gprof: %s\n", E.message().c_str());
        return 1;
      }
    }
  }

  if (!Report->RemovedArcs.empty()) {
    std::printf("\narcs deleted from the analysis:\n");
    for (auto [From, To] : Report->RemovedArcs)
      std::printf("  %s -> %s\n",
                  Report->Functions[From].Name.c_str(),
                  Report->Functions[To].Name.c_str());
  }
  return EmitTelemetry() ? 0 : 1;
}

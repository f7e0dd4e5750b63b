//===- core/FlatPrinter.cpp ------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "core/FlatPrinter.h"

#include "support/Format.h"

using namespace gprof;

std::string gprof::printFlatProfile(const ProfileReport &Report,
                                    const FlatPrintOptions &Opts) {
  std::string Out;
  if (!Opts.Brief) {
    Out += "flat profile:\n\n";
    Out += format("Each sample counts for %g seconds; total %.2f seconds "
                  "attributed (%u run%s).\n\n",
                  1.0 / static_cast<double>(Report.TicksPerSecond),
                  Report.TotalTime, Report.RunCount,
                  Report.RunCount == 1 ? "" : "s");
  }
  if (Report.ArcTableOverflowed)
    Out += "warning: the arc table overflowed during collection; call "
           "counts are lower bounds\n\n";

  Out += "  %   cumulative   self              self     total\n";
  Out += " time   seconds   seconds    calls  ms/call  ms/call  name\n";

  // Each row is "%5s %10.2f %9.2f %8s %8s %8s  %s\n", appended field by
  // field; the percent reads 0.0 when no time was attributed, and the
  // three per-call columns are blank for a routine never called.
  double Cumulative = 0.0;
  for (uint32_t I : Report.FlatOrder) {
    const FunctionEntry &F = Report.Functions[I];
    if (F.isUnused() && !Opts.ShowZeroUsage)
      continue;
    Cumulative += F.SelfTime;

    if (Report.TotalTime == 0.0)
      Out += "  0.0";
    else
      appendFixed(Out, 100.0 * F.SelfTime / Report.TotalTime, 1, 5);
    Out += ' ';
    appendFixed(Out, Cumulative, 2, 10);
    Out += ' ';
    appendFixed(Out, F.SelfTime, 2, 9);
    if (F.totalCalls() != 0) {
      double N = static_cast<double>(F.totalCalls());
      Out += ' ';
      appendUInt(Out, F.totalCalls(), 8);
      Out += ' ';
      appendFixed(Out, F.SelfTime * 1000.0 / N, 2, 8);
      Out += ' ';
      appendFixed(Out, F.totalTime() * 1000.0 / N, 2, 8);
    } else {
      Out.append(3 * 9, ' ');
    }
    Out += "  ";
    Out += F.Name.c_str();
    Out += '\n';
  }

  if (Report.UnattributedTime > 0.0) {
    Out += '\n';
    appendFixed(Out, Report.UnattributedTime, 2);
    Out += " seconds sampled outside every known routine\n";
  }
  if (Report.ExcludedTime > 0.0) {
    Out += '\n';
    appendFixed(Out, Report.ExcludedTime, 2);
    Out += " seconds excluded from the analysis (-E)\n";
  }

  if (!Report.UnusedFunctions.empty() && !Opts.ShowZeroUsage) {
    Out += "\nroutines never called in this execution:\n";
    for (uint32_t I : Report.UnusedFunctions) {
      Out += "    ";
      Out += Report.Functions[I].Name.c_str();
      Out += '\n';
    }
  }
  return Out;
}

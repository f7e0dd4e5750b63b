//===- support/Format.h - String formatting helpers ----------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style formatting into std::string plus the small set of numeric
/// and alignment helpers the profile listings need.  The gprof output format
/// is fixed-width character tables (paper §5), so precise padding matters.
/// The listing printers write every row with the append helpers, which
/// produce printf's bytes without its per-call cost.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_SUPPORT_FORMAT_H
#define GPROF_SUPPORT_FORMAT_H

#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gprof {

/// printf-style formatting into a std::string.
std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// vprintf-style formatting into a std::string.
std::string formatV(const char *Fmt, va_list Args);

/// Right-aligns \p S in a field of \p Width characters (never truncates).
std::string padLeft(std::string_view S, unsigned Width);

/// Left-aligns \p S in a field of \p Width characters (never truncates).
std::string padRight(std::string_view S, unsigned Width);

/// Appends \p Value in decimal, right-aligned in a field of \p Width
/// characters: printf's "%*llu", written with std::to_chars, so no format
/// string is parsed and no temporary string is built.
void appendUInt(std::string &Out, uint64_t Value, unsigned Width = 0);

/// Appends \p Value with \p Decimals digits after the point, right-aligned
/// in a field of \p Width characters: printf's "%*.*f".  std::to_chars and
/// glibc's printf both round the exact binary value to nearest, ties to
/// even, and spell infinities and NaNs the same way, so the text matches.
void appendFixed(std::string &Out, double Value, int Decimals,
                 unsigned Width = 0);

/// Pads the text appended to \p Out since offset \p Start on the left to
/// \p Width characters, as printf's "%*s" does: it never truncates.
void alignRight(std::string &Out, size_t Start, unsigned Width);

/// Pads the text appended to \p Out since offset \p Start on the right to
/// \p Width characters, as printf's "%-*s" does.
void alignLeft(std::string &Out, size_t Start, unsigned Width);

/// Formats \p Value with \p Decimals digits after the point.
std::string formatFixed(double Value, unsigned Decimals);

/// Formats \p Numerator/\p Denominator as a percentage with one decimal,
/// e.g. "41.5".  Returns "0.0" when the denominator is zero.
std::string formatPercent(double Numerator, double Denominator);

/// Splits \p S on \p Sep, keeping empty fields.
std::vector<std::string> splitString(std::string_view S, char Sep);

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view S);

/// Parses a signed 64-bit decimal integer; returns false on any malformed
/// or out-of-range input.
bool parseInt64(std::string_view S, long long &Out);

/// Parses an unsigned 64-bit decimal integer.
bool parseUInt64(std::string_view S, unsigned long long &Out);

} // namespace gprof

#endif // GPROF_SUPPORT_FORMAT_H

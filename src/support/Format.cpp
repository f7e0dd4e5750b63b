//===- support/Format.cpp -------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace gprof;

std::string gprof::formatV(const char *Fmt, va_list Args) {
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  if (Needed < 0)
    return std::string();
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, Args);
  return Result;
}

std::string gprof::format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Result = formatV(Fmt, Args);
  va_end(Args);
  return Result;
}

std::string gprof::padLeft(std::string_view S, unsigned Width) {
  if (S.size() >= Width)
    return std::string(S);
  return std::string(Width - S.size(), ' ') + std::string(S);
}

std::string gprof::padRight(std::string_view S, unsigned Width) {
  if (S.size() >= Width)
    return std::string(S);
  return std::string(S) + std::string(Width - S.size(), ' ');
}

void gprof::appendUInt(std::string &Out, uint64_t Value, unsigned Width) {
  char Buf[24];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), Value);
  assert(Ec == std::errc() && "a u64 has at most 20 digits");
  size_t Len = static_cast<size_t>(End - Buf);
  if (Len < Width)
    Out.append(Width - Len, ' ');
  Out.append(Buf, Len);
}

void gprof::appendFixed(std::string &Out, double Value, int Decimals,
                        unsigned Width) {
  // DBL_MAX has 309 integer digits; with a sign, the point and up to 16
  // decimals it still fits.
  char Buf[336];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), Value,
                                 std::chars_format::fixed, Decimals);
  assert(Ec == std::errc() && Decimals <= 16 && "fixed buffer too small");
  size_t Len = static_cast<size_t>(End - Buf);
  if (Len < Width)
    Out.append(Width - Len, ' ');
  Out.append(Buf, Len);
}

void gprof::alignRight(std::string &Out, size_t Start, unsigned Width) {
  size_t Len = Out.size() - Start;
  if (Len < Width)
    Out.insert(Start, Width - Len, ' ');
}

void gprof::alignLeft(std::string &Out, size_t Start, unsigned Width) {
  size_t Len = Out.size() - Start;
  if (Len < Width)
    Out.append(Width - Len, ' ');
}

std::string gprof::formatFixed(double Value, unsigned Decimals) {
  return format("%.*f", static_cast<int>(Decimals), Value);
}

std::string gprof::formatPercent(double Numerator, double Denominator) {
  if (Denominator == 0.0)
    return "0.0";
  return formatFixed(100.0 * Numerator / Denominator, 1);
}

std::vector<std::string> gprof::splitString(std::string_view S, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Parts.emplace_back(S.substr(Start));
      return Parts;
    }
    Parts.emplace_back(S.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string_view gprof::trim(std::string_view S) {
  size_t Begin = 0;
  while (Begin < S.size() && std::isspace(static_cast<unsigned char>(S[Begin])))
    ++Begin;
  size_t End = S.size();
  while (End > Begin && std::isspace(static_cast<unsigned char>(S[End - 1])))
    --End;
  return S.substr(Begin, End - Begin);
}

bool gprof::parseInt64(std::string_view S, long long &Out) {
  std::string Buf(trim(S));
  if (Buf.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long Value = std::strtoll(Buf.c_str(), &End, 10);
  if (errno != 0 || End != Buf.c_str() + Buf.size())
    return false;
  Out = Value;
  return true;
}

bool gprof::parseUInt64(std::string_view S, unsigned long long &Out) {
  std::string Buf(trim(S));
  if (Buf.empty() || Buf[0] == '-')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Buf.c_str(), &End, 10);
  if (errno != 0 || End != Buf.c_str() + Buf.size())
    return false;
  Out = Value;
  return true;
}

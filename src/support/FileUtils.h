//===- support/FileUtils.h - Whole-file read/write helpers ---------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#ifndef GPROF_SUPPORT_FILEUTILS_H
#define GPROF_SUPPORT_FILEUTILS_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gprof {

/// Reads the entire file at \p Path as bytes.
Expected<std::vector<uint8_t>> readFileBytes(const std::string &Path);

/// Reads the entire file at \p Path as text.
Expected<std::string> readFileText(const std::string &Path);

/// Writes \p Bytes to \p Path, replacing any existing file.  A failure
/// mid-write can leave a torn file at \p Path; profile artifacts should
/// use writeFileBytesAtomic instead.
Error writeFileBytes(const std::string &Path,
                     const std::vector<uint8_t> &Bytes);

/// Writes \p Text to \p Path, replacing any existing file.
Error writeFileText(const std::string &Path, const std::string &Text);

/// Crash-safe replacement write: writes \p Bytes to a temporary of its own,
/// "<Path>.<pid>-<seq>.tmp", then renames it over \p Path.  Concurrent
/// writers of one path never share a temporary, so each rename commits a
/// whole file and the last one wins.  On any failure the temporary is
/// removed and the previous contents of \p Path survive byte-identical — a
/// reader never observes a torn file (docs/ROBUSTNESS.md).
Error writeFileBytesAtomic(const std::string &Path,
                           const std::vector<uint8_t> &Bytes);

/// A file held open for writes at explicit offsets and cuts back to a
/// length: the profile store's append-only index journal.  Movable; the
/// descriptor closes on destruction.
class AppendFile {
public:
  AppendFile() = default;
  ~AppendFile();
  AppendFile(AppendFile &&Other) noexcept;
  AppendFile &operator=(AppendFile &&Other) noexcept;
  AppendFile(const AppendFile &) = delete;
  AppendFile &operator=(const AppendFile &) = delete;

  /// Opens \p Path for writing, creating it empty if it does not exist.
  static Expected<AppendFile> open(const std::string &Path);

  bool isOpen() const { return Fd >= 0; }

  /// Writes \p Bytes at byte \p Offset.  An armed file.append fault
  /// writes only the first half of them and then fails: the torn prefix a
  /// crash mid-append leaves behind.
  Error writeAt(uint64_t Offset, const std::vector<uint8_t> &Bytes);

  /// Cuts the file to \p Size bytes (fault point file.truncate).
  Error truncate(uint64_t Size);

private:
  int Fd = -1;
  std::string Path;
};

/// True if a regular file exists at \p Path.
bool fileExists(const std::string &Path);

/// Creates \p Path and any missing parents (a no-op if it already exists).
Error createDirectories(const std::string &Path);

/// Entry names (not full paths) in the directory at \p Path, sorted.
/// "." and ".." are omitted.
Expected<std::vector<std::string>> listDirectory(const std::string &Path);

/// Deletes the file at \p Path (a no-op if it does not exist).
Error removeFile(const std::string &Path);

/// Atomically replaces \p To with \p From (same filesystem).
Error renameFile(const std::string &From, const std::string &To);

} // namespace gprof

#endif // GPROF_SUPPORT_FILEUTILS_H

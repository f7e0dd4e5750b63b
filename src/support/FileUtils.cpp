//===- support/FileUtils.cpp ----------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "support/FileUtils.h"

#include "support/FaultInjection.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <system_error>
#include <unistd.h>

using namespace gprof;

namespace {

/// RAII wrapper over std::FILE.
struct FileHandle {
  explicit FileHandle(std::FILE *F) : F(F) {}
  ~FileHandle() {
    if (F)
      std::fclose(F);
  }
  /// Closes eagerly, reporting the flush-on-close result (a buffered
  /// write error surfaces here, not at fwrite).
  bool close() {
    std::FILE *Old = F;
    F = nullptr;
    return Old == nullptr || std::fclose(Old) == 0;
  }
  FileHandle(const FileHandle &) = delete;
  FileHandle &operator=(const FileHandle &) = delete;
  std::FILE *F;
};

/// Best-effort deletion that never reports (failure-path cleanup).
void removeQuietly(const std::string &Path) {
  std::error_code EC;
  std::filesystem::remove(Path, EC);
}

} // namespace

Expected<std::vector<uint8_t>> gprof::readFileBytes(const std::string &Path) {
  if (Error E = fault::check("file.read", Path))
    return E;
  FileHandle FH(std::fopen(Path.c_str(), "rb"));
  if (!FH.F)
    return Error::failure(format("cannot open '%s' for reading",
                                 Path.c_str()));
  std::vector<uint8_t> Bytes;
  uint8_t Buf[64 * 1024];
  while (true) {
    size_t N = std::fread(Buf, 1, sizeof(Buf), FH.F);
    Bytes.insert(Bytes.end(), Buf, Buf + N);
    if (N < sizeof(Buf)) {
      if (std::ferror(FH.F))
        return Error::failure(format("read error on '%s'", Path.c_str()));
      break;
    }
  }
  return Bytes;
}

Expected<std::string> gprof::readFileText(const std::string &Path) {
  auto Bytes = readFileBytes(Path);
  if (!Bytes)
    return Bytes.takeError();
  return std::string(Bytes->begin(), Bytes->end());
}

Error gprof::writeFileBytes(const std::string &Path,
                            const std::vector<uint8_t> &Bytes) {
  if (Error E = fault::check("file.write", Path))
    return E;
  FileHandle FH(std::fopen(Path.c_str(), "wb"));
  if (!FH.F)
    return Error::failure(format("cannot open '%s' for writing",
                                 Path.c_str()));
  if (!Bytes.empty() &&
      std::fwrite(Bytes.data(), 1, Bytes.size(), FH.F) != Bytes.size())
    return Error::failure(format("write error on '%s'", Path.c_str()));
  if (!FH.close())
    return Error::failure(format("write error on '%s'", Path.c_str()));
  return Error::success();
}

Error gprof::writeFileText(const std::string &Path, const std::string &Text) {
  std::vector<uint8_t> Bytes(Text.begin(), Text.end());
  return writeFileBytes(Path, Bytes);
}

Error gprof::writeFileBytesAtomic(const std::string &Path,
                                  const std::vector<uint8_t> &Bytes) {
  // The pid separates processes and the sequence separates this process's
  // writers; the .tmp suffix is what gc sweeps after a crash.
  static std::atomic<uint64_t> NextTemp{0};
  std::string Tmp = Path + "." + std::to_string(::getpid()) + "-" +
                    std::to_string(NextTemp.fetch_add(1)) + ".tmp";
  if (Error E = writeFileBytes(Tmp, Bytes)) {
    removeQuietly(Tmp);
    return E;
  }
  if (Error E = renameFile(Tmp, Path)) {
    removeQuietly(Tmp);
    return E;
  }
  return Error::success();
}

bool gprof::fileExists(const std::string &Path) {
  std::error_code EC;
  return std::filesystem::is_regular_file(Path, EC);
}

Error gprof::createDirectories(const std::string &Path) {
  std::error_code EC;
  std::filesystem::create_directories(Path, EC);
  if (EC)
    return Error::failure(format("cannot create directory '%s': %s",
                                 Path.c_str(), EC.message().c_str()));
  return Error::success();
}

Expected<std::vector<std::string>> gprof::listDirectory(
    const std::string &Path) {
  std::error_code EC;
  std::filesystem::directory_iterator It(Path, EC);
  if (EC)
    return Error::failure(format("cannot list directory '%s': %s",
                                 Path.c_str(), EC.message().c_str()));
  std::vector<std::string> Names;
  for (const auto &Entry : It)
    Names.push_back(Entry.path().filename().string());
  std::sort(Names.begin(), Names.end());
  return Names;
}

Error gprof::removeFile(const std::string &Path) {
  std::error_code EC;
  std::filesystem::remove(Path, EC);
  if (EC)
    return Error::failure(format("cannot remove '%s': %s", Path.c_str(),
                                 EC.message().c_str()));
  return Error::success();
}

Error gprof::renameFile(const std::string &From, const std::string &To) {
  if (Error E = fault::check("file.rename", From + " -> " + To))
    return E;
  std::error_code EC;
  std::filesystem::rename(From, To, EC);
  if (EC)
    return Error::failure(format("cannot rename '%s' to '%s': %s",
                                 From.c_str(), To.c_str(),
                                 EC.message().c_str()));
  return Error::success();
}

AppendFile::~AppendFile() {
  if (Fd >= 0)
    ::close(Fd);
}

AppendFile::AppendFile(AppendFile &&Other) noexcept
    : Fd(std::exchange(Other.Fd, -1)), Path(std::move(Other.Path)) {}

AppendFile &AppendFile::operator=(AppendFile &&Other) noexcept {
  if (this != &Other) {
    if (Fd >= 0)
      ::close(Fd);
    Fd = std::exchange(Other.Fd, -1);
    Path = std::move(Other.Path);
  }
  return *this;
}

Expected<AppendFile> AppendFile::open(const std::string &Path) {
  AppendFile F;
  F.Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (F.Fd < 0)
    return Error::failure(format("cannot open '%s' for writing: %s",
                                 Path.c_str(), std::strerror(errno)));
  F.Path = Path;
  return F;
}

Error AppendFile::writeAt(uint64_t Offset, const std::vector<uint8_t> &Bytes) {
  Error Fault = fault::check("file.append", Path);
  const size_t Want = Fault.isFailure() ? Bytes.size() / 2 : Bytes.size();
  for (size_t Done = 0; Done != Want;) {
    ssize_t N = ::pwrite(Fd, Bytes.data() + Done, Want - Done,
                         static_cast<off_t>(Offset + Done));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      (void)static_cast<bool>(Fault);
      return Error::failure(format("write error on '%s': %s", Path.c_str(),
                                   std::strerror(errno)));
    }
    Done += static_cast<size_t>(N);
  }
  return Fault;
}

Error AppendFile::truncate(uint64_t Size) {
  if (Error E = fault::check("file.truncate", Path))
    return E;
  if (::ftruncate(Fd, static_cast<off_t>(Size)) != 0)
    return Error::failure(format("cannot truncate '%s': %s", Path.c_str(),
                                 std::strerror(errno)));
  return Error::success();
}

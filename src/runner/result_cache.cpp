#include "runner/result_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "runner/version.hpp"
#include "stats/serialize.hpp"

namespace asfsim::runner {

namespace {

constexpr std::string_view kHeader = "asfsim-cache v1";

/// The bytes of the file at `path` in one pass, or nullopt when it cannot
/// be opened or read (a miss, like an absent entry).
std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::string bytes(8192, '\0');  // an entry is ~2.5 KB: one read() fills it
  std::size_t n = 0;
  for (;;) {
    if (n == bytes.size()) bytes.resize(2 * n);
    const ssize_t got = ::read(fd, bytes.data() + n, bytes.size() - n);
    if (got > 0) {
      n += static_cast<std::size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    ::close(fd);
    if (got < 0) return std::nullopt;
    bytes.resize(n);
    return bytes;
  }
}

/// Cursor over an entry's bytes: the header line, then
/// "<key> <count>\n<count raw bytes>\n" length-prefixed sections whose raw
/// payload may contain anything (spec text, stats blob, error strings).
/// Payloads are views into the file's bytes.
class EntryReader {
 public:
  explicit EntryReader(std::string_view bytes) : rest_(bytes) {}

  bool literal(std::string_view text) {
    if (rest_.substr(0, text.size()) != text) return false;
    rest_.remove_prefix(text.size());
    return true;
  }

  /// The next section, which must be named `key`. The count is decimal
  /// digits no larger than the bytes left: a corrupted length must parse
  /// as damage, not as a read past the file.
  bool section(std::string_view key, std::string_view& payload) {
    if (!literal(key) || !literal(" ")) return false;
    std::size_t n = 0;
    std::size_t digits = 0;
    while (digits < rest_.size() && rest_[digits] >= '0' &&
           rest_[digits] <= '9') {
      n = n * 10 + static_cast<std::size_t>(rest_[digits] - '0');
      if (n > rest_.size()) return false;  // also rules out wrapping
      ++digits;
    }
    if (digits == 0) return false;
    rest_.remove_prefix(digits);
    if (!literal("\n") || n > rest_.size()) return false;
    payload = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return literal("\n");
  }

  [[nodiscard]] bool done() const { return rest_.empty(); }

 private:
  std::string_view rest_;
};

void write_section(std::ostream& out, const std::string& key,
                   const std::string& payload) {
  out << key << ' ' << payload.size() << '\n' << payload << '\n';
}

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string ResultCache::default_dir() {
  if (const char* env = std::getenv("ASFSIM_CACHE_DIR");
      env != nullptr && *env != '\0') {
    return env;
  }
  return "build/.asfsim-cache";
}

std::string ResultCache::entry_path(const JobSpec& spec) const {
  return dir_ + "/" + code_version_stamp() + "/" + spec.hash_hex + ".result";
}

std::optional<ExperimentResult> ResultCache::load(const JobSpec& spec) const {
  const std::string path = entry_path(spec);
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes) return std::nullopt;

  // Every anomaly past this point quarantines the file: a truncated write,
  // a flipped bit, or tampering must degrade to one recomputation, never to
  // wrong results or a permanently poisoned entry.
  const auto corrupt = [&]() -> std::optional<ExperimentResult> {
    quarantine(path);
    return std::nullopt;
  };

  EntryReader in(*bytes);
  std::string_view stored_spec, workload, detector, error, stats_blob;
  if (!in.literal(kHeader) || !in.literal("\n") ||
      !in.section("spec", stored_spec) ||
      !in.section("workload", workload) ||
      !in.section("detector", detector) ||
      !in.section("validation_error", error) ||
      !in.section("stats", stats_blob)) {
    return corrupt();
  }
  if (!in.done()) {
    return corrupt();  // trailing bytes: truncated write or tampering
  }
  // The hash addressed the file; the spec text authenticates it. A clean
  // mismatch is overwhelmingly a damaged spec section (a true 64-bit hash
  // collision is astronomically unlikely), so it quarantines too.
  if (stored_spec != spec.canonical || workload != spec.workload) {
    return corrupt();
  }

  ExperimentResult r;
  r.workload = workload;
  r.detector = detector;
  r.validation_error = error;
  if (!deserialize_stats(stats_blob, r.stats)) return corrupt();
  return r;
}

void ResultCache::quarantine(const std::string& path) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path bad(path);
  bad.replace_extension(".bad");
  fs::rename(path, bad, ec);
  if (ec) fs::remove(path, ec);  // never fails the run either way
}

void ResultCache::store(const JobSpec& spec,
                        const ExperimentResult& result) const {
  namespace fs = std::filesystem;
  const std::string path = entry_path(spec);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) return;  // unwritable cache never fails the run

  // Unique temp name per process+spec; rename() makes the publish atomic.
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << ::getpid();
  const std::string tmp = tmp_name.str();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return;
    out << kHeader << '\n';
    write_section(out, "spec", spec.canonical);
    write_section(out, "workload", result.workload);
    write_section(out, "detector", result.detector);
    write_section(out, "validation_error", result.validation_error);
    write_section(out, "stats", serialize_stats(result.stats));
    if (!out.good()) {
      out.close();
      fs::remove(tmp, ec);
      return;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
}

}  // namespace asfsim::runner

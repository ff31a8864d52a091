#include "serve/cache.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "report/json.h"

namespace ffet::serve {

namespace {

/// The "label" member of a stored flow-report line; empty when the line is
/// not parseable — the caller then discards the file.
std::string line_label(const std::string& line) {
  const auto doc = report::json::parse(line);
  if (!doc || !doc->is_object()) return {};
  const report::json::Value* v = doc->find("label");
  return v && v->is_string() ? v->str : std::string();
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// First line of `path`, or empty when missing/unreadable.
std::string read_first_line(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  if (!f || !std::getline(f, line)) return {};
  return line;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string ResultCache::entry_path(const std::string& label) const {
  const std::string hex = hash_hex(fnv1a64(label));
  return dir_ + "/" + hex.substr(0, 2) + "/" + hex + ".json";
}

int ResultCache::load_index() {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  index_.clear();
  skipped_ = 0;
  DIR* top = ::opendir(dir_.c_str());
  if (!top) return 0;
  std::vector<std::string> subdirs;
  while (const dirent* e = ::readdir(top)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    subdirs.push_back(dir_ + "/" + name);
  }
  ::closedir(top);
  int loaded = 0;
  for (const std::string& sub : subdirs) {
    DIR* d = ::opendir(sub.c_str());
    if (!d) continue;  // stray plain file at the top level
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() < 6 || name.substr(name.size() - 5) != ".json") continue;
      std::ifstream f(sub + "/" + name);
      std::string line;
      if (!f || !std::getline(f, line)) {
        ++skipped_;
        continue;
      }
      const std::string label = line_label(line);
      if (label.empty()) {
        ++skipped_;  // torn or foreign file — never serve it
        continue;
      }
      index_[label] = std::move(line);
      ++loaded;
    }
    ::closedir(d);
  }
  return loaded;
}

bool ResultCache::lookup(const std::string& label, std::string* line) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(label);
  if (it == index_.end()) return false;
  if (line) *line = it->second;
  return true;
}

bool ResultCache::store(const std::string& label, const std::string& line) {
  if (!enabled()) return false;
  // mu_ is held across the disk write too: two colliding labels probing
  // suffixed paths concurrently must not pick the same file.  Stores are
  // rare (one per completed flow run) so the brief lookup stall is fine.
  std::lock_guard<std::mutex> lk(mu_);
  index_[label] = line;
  const std::string base = entry_path(label);
  const std::size_t slash = base.find_last_of('/');
  ::mkdir(dir_.c_str(), 0777);
  ::mkdir(base.substr(0, slash).c_str(), 0777);
  // An FNV-64 filename collision must not let this label's store clobber
  // another label's entry: only overwrite a file that is unreadable or
  // already carries this label, else probe "-1", "-2", ... suffixes.
  // load_index keys by the label stored *inside* each file, so a suffixed
  // entry is indexed exactly like a base one.
  std::string path;
  for (int i = 0; i < 16 && path.empty(); ++i) {
    std::string cand = base;
    if (i > 0) {
      cand.insert(cand.size() - 5, std::string("-") + std::to_string(i));
    }
    const std::string existing = read_first_line(cand);
    if (existing.empty() || line_label(existing) == label) path = cand;
  }
  if (path.empty()) return false;  // 16 distinct labels on one hash
  // Temp-then-rename: the entry appears atomically or not at all.  The
  // temp name carries the pid so two daemons on one cache dir (unusual but
  // legal — rename is last-writer-wins on identical content) don't collide.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    f << line << '\n';
    if (!f.good()) {
      ::unlink(tmp.c_str());
      return false;
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

int ResultCache::entries() {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(index_.size());
}

}  // namespace ffet::serve

#include "mem/tile_store.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/binio.hpp"
#include "support/error.hpp"
#include "support/fsio.hpp"

namespace th::mem {

namespace {

constexpr char kMagic[4] = {'T', 'H', 'T', 'S'};
// v3: the payload is the tile's envelope panel (DESIGN.md §3), not a
// dense b×b block; a v2 file fails with the typed version error.
constexpr std::uint32_t kVersion = 3;
constexpr char kManifestMagic[4] = {'T', 'H', 'T', 'M'};
// v2: the manifest leads with the TileLayout its tiles belong to; a v1
// manifest fails with the typed version error and its factors recompute.
constexpr std::uint32_t kManifestVersion = 2;
// Plausibility bound on a tile payload: 2^31 doubles (16 GiB) dwarfs any
// modelled tile; a longer length prefix means the file is corrupt.
constexpr std::uint64_t kMaxPayload = 1ULL << 31;
constexpr std::uint64_t kMaxManifestEntries = 1ULL << 24;

}  // namespace

TileStore::TileStore(std::string dir, bool durable)
    : dir_(std::move(dir)), durable_(durable) {
  TH_CHECK_MSG(!dir_.empty(), "tile store directory must not be empty");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  TH_CHECK_MSG(!ec, "cannot create spill directory '" << dir_
                                                      << "': " << ec.message());
}

std::string TileStore::path_of(index_t tile_id) const {
  std::ostringstream os;
  os << dir_ << "/tile_" << tile_id << ".thts";
  return os.str();
}

std::string TileStore::manifest_path() const {
  return dir_ + "/manifest.thtm";
}

void TileStore::save_tile(std::ostream& out, index_t tile_id,
                          const std::vector<real_t>& payload) {
  bin::RecordWriter rec(kMagic, kVersion);
  rec.put<std::int32_t>(tile_id);
  rec.put_vector(payload);
  rec.finish(out);
}

std::pair<index_t, std::vector<real_t>> TileStore::load_tile(
    std::istream& in) {
  bin::RecordReader rec(in, kMagic, kVersion, "tile store",
                        bin::kRecordHeaderBytes + kMaxPayload * sizeof(real_t));
  const auto id = rec.get<std::int32_t>("tile id");
  auto payload = rec.get_vector<real_t>(kMaxPayload, "tile payload");
  rec.finish();
  return {id, std::move(payload)};
}

void TileStore::save_manifest(std::ostream& out,
                              const TileManifest& manifest) {
  bin::RecordWriter rec(kManifestMagic, kManifestVersion);
  rec.put<std::uint32_t>(manifest.layout.perm_crc);
  rec.put<std::int32_t>(manifest.layout.block);
  rec.put<std::uint64_t>(manifest.entries.size());
  for (const TileManifestEntry& e : manifest.entries) {
    rec.put<std::int32_t>(e.tile_id);
    rec.put<std::uint64_t>(e.payload_len);
    rec.put<std::uint32_t>(e.payload_crc);
  }
  rec.finish(out);
}

TileManifest TileStore::load_manifest(std::istream& in) {
  bin::RecordReader rec(
      in, kManifestMagic, kManifestVersion, "tile manifest",
      bin::kRecordHeaderBytes + 16 + kMaxManifestEntries * 20);
  TileManifest m;
  m.layout.perm_crc = rec.get<std::uint32_t>("manifest permutation crc");
  m.layout.block = rec.get<std::int32_t>("manifest tile size");
  const auto count = rec.get<std::uint64_t>("entry count");
  TH_CHECK_MSG(count <= kMaxManifestEntries,
               "implausible tile manifest entry count " << count);
  std::vector<TileManifestEntry>& entries = m.entries;
  entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t k = 0; k < count; ++k) {
    TileManifestEntry e;
    e.tile_id = rec.get<std::int32_t>("manifest tile id");
    e.payload_len = rec.get<std::uint64_t>("manifest payload length");
    e.payload_crc = rec.get<std::uint32_t>("manifest payload crc");
    entries.push_back(e);
  }
  rec.finish();
  return m;
}

TileManifest TileStore::load_manifest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TH_CHECK_MSG(in.good(), "cannot open tile manifest '" << path << "'");
  return load_manifest(in);
}

std::string TileStore::write_manifest(const TileLayout& layout) const {
  TH_CHECK_MSG(io(), "manifest write on a model-only tile store");
  TileManifest m;
  m.layout = layout;
  m.entries.reserve(entries_.size());
  for (const auto& [id, e] : entries_) m.entries.push_back(e);
  const std::string path = manifest_path();
  fsio::atomic_write_file(
      path, [&m](std::ostream& out) { save_manifest(out, m); }, durable_);
  return path;
}

void TileStore::spill(index_t tile_id, const std::vector<real_t>& payload) {
  TH_CHECK_MSG(io(), "payload spill on a model-only tile store");
  const std::string path = path_of(tile_id);
  if (durable_) {
    fsio::atomic_write_file(path, [&](std::ostream& out) {
      save_tile(out, tile_id, payload);
    });
  } else {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    TH_CHECK_MSG(out.good(), "cannot open spill file '" << path << "'");
    save_tile(out, tile_id, payload);
    TH_CHECK_MSG(out.good(), "short write to spill file '" << path << "'");
  }
  TileManifestEntry e;
  e.tile_id = tile_id;
  e.payload_len = payload.size();
  e.payload_crc =
      bin::crc32c(payload.data(), payload.size() * sizeof(real_t));
  entries_[tile_id] = e;
  ++files_written_;
  bytes_written_ += static_cast<offset_t>(payload.size() * sizeof(real_t));
}

bool TileStore::contains(index_t tile_id) const {
  if (!io()) return false;
  std::error_code ec;
  return std::filesystem::exists(path_of(tile_id), ec) && !ec;
}

std::vector<real_t> TileStore::reload(index_t tile_id) const {
  TH_CHECK_MSG(io(), "payload reload on a model-only tile store");
  const std::string path = path_of(tile_id);
  std::ifstream in(path, std::ios::binary);
  TH_CHECK_MSG(in.good(), "spilled tile " << tile_id << " missing: '" << path
                                          << "'");
  auto [id, payload] = load_tile(in);
  TH_CHECK_MSG(id == tile_id, "spill file '" << path << "' holds tile " << id
                                             << ", expected " << tile_id);
  return std::move(payload);
}

}  // namespace th::mem

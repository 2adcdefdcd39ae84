// TileStore — the out-of-core backing store cold factor tiles spill to.
//
// One "THTS" file per spilled tile, carried in the shared CRC32C record
// frame (support/binio RecordWriter: 4-byte magic, u32 version, u64
// payload length, payload, u32 crc32c) — the same framing as the
// checkpoint ("THCK"), fault-report ("THFR") and journal ("THWJ") formats.
// Reload restores the exact bytes that were spilled, so factors stay
// bit-identical with spilling on or off. Readers throw
// bin::IoError with a byte offset on truncated files AND on any flipped
// bit (the CRC covers header and payload).
//
// A store can additionally keep a manifest ("THTM"): the factor layout the
// tiles belong to, then the id, payload length and payload CRC32C of every
// tile it has written. The durability layer writes the manifest atomically
// *after* the tiles it describes, so a manifest's presence certifies a
// complete, verifiable artifact set — the factor-commit protocol in
// src/serve/journal relies on exactly this.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace th::mem {

/// One manifest row: enough to verify a tile file without trusting it.
struct TileManifestEntry {
  index_t tile_id = -1;
  std::uint64_t payload_len = 0;  // element count (real_t)
  std::uint32_t payload_crc = 0;  // crc32c over the payload bytes
};

/// The factor layout a manifest's tiles belong to. Tile ids and panel
/// shapes are functions of the fill-reducing permutation and the tile
/// size, so a reader adopts the tiles only under the same pair.
struct TileLayout {
  std::uint32_t perm_crc = 0;  // crc32c over the permutation's entries
  index_t block = 0;           // tile size
  bool operator==(const TileLayout&) const = default;
};

/// A decoded THTM manifest.
struct TileManifest {
  TileLayout layout;
  std::vector<TileManifestEntry> entries;
};

class TileStore {
 public:
  /// Payload-less store: contains() is always false and spill()/reload()
  /// are invalid — the scheduler prices spills in the model only.
  TileStore() = default;
  /// Payload store rooted at `dir` (created if missing). With `durable`
  /// set, every spill is published crash-safely (temp file + fsync +
  /// atomic rename + directory fsync) — the artifact-store mode; the
  /// spill hot path leaves it off.
  explicit TileStore(std::string dir, bool durable = false);

  bool io() const { return !dir_.empty(); }
  bool durable() const { return durable_; }
  const std::string& dir() const { return dir_; }

  /// Write one tile's payload; overwrites any previous spill of the id.
  void spill(index_t tile_id, const std::vector<real_t>& payload);
  bool contains(index_t tile_id) const;
  /// Read a spilled payload back (the file stays until overwritten, so a
  /// crashed run leaves its spill set inspectable). Throws bin::IoError on
  /// a truncated/corrupt file, th::Error when the id was never spilled.
  std::vector<real_t> reload(index_t tile_id) const;

  offset_t files_written() const { return files_written_; }
  offset_t bytes_written() const { return bytes_written_; }

  /// Manifest of everything this store has spilled (id -> entry).
  const std::map<index_t, TileManifestEntry>& entries() const {
    return entries_;
  }
  /// Atomically publish `dir()/manifest.thtm` describing entries() under
  /// `layout`; returns the manifest path. Must be called *after* the tiles
  /// it describes are on disk — the commit-protocol ordering.
  std::string write_manifest(const TileLayout& layout) const;
  std::string manifest_path() const;

  /// Stream-level THTS codec (used directly by the round-trip tests).
  static void save_tile(std::ostream& out, index_t tile_id,
                        const std::vector<real_t>& payload);
  static std::pair<index_t, std::vector<real_t>> load_tile(std::istream& in);

  /// THTM manifest codec. load_manifest throws bin::IoError on any
  /// corruption (the manifest is itself a framed record).
  static void save_manifest(std::ostream& out, const TileManifest& manifest);
  static TileManifest load_manifest(std::istream& in);
  static TileManifest load_manifest_file(const std::string& path);

  std::string path_of(index_t tile_id) const;

 private:
  std::string dir_;
  bool durable_ = false;
  offset_t files_written_ = 0;
  offset_t bytes_written_ = 0;
  std::map<index_t, TileManifestEntry> entries_;
};

}  // namespace th::mem

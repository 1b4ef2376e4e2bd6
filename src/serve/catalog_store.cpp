#include "serve/catalog_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "util/error.h"

namespace hacc::serve {

namespace {

/// Typed view over a cached sub-block that holds the block itself, so the
/// view stays valid when the cache does not keep (or evicts) the entry.
/// The bytes come from a heap vector, whose allocation is aligned for any
/// scalar type.
template <typename T>
struct Column {
  CacheBlock block;
  std::span<const T> view;
  const T& operator[](std::size_t i) const { return view[i]; }
  std::size_t size() const noexcept { return view.size(); }
};

template <typename T>
Column<T> as(CacheBlock b) {
  HACC_CHECK(b->size() % sizeof(T) == 0);
  const std::span<const T> view{reinterpret_cast<const T*>(b->data()),
                                b->size() / sizeof(T)};
  return {std::move(b), view};
}

}  // namespace

CatalogStore::CatalogStore(const std::string& dir, const Config& config)
    : dir_(dir),
      cache_(std::make_unique<BlockCache>(config.cache_bytes,
                                          config.cache_shards)) {
  namespace fs = std::filesystem;
  HACC_CHECK_MSG(fs::is_directory(dir_), "no catalog directory " + dir_);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    int step = 0;
    char product[16] = {};
    if (std::sscanf(name.c_str(), "catalog_%d.%15[a-z].gio", &step,
                    product) != 2)
      continue;
    FileEntry fe;
    fe.step = step;
    if (std::strcmp(product, "halos") == 0) {
      fe.product = Product::kHalos;
    } else if (std::strcmp(product, "spectrum") == 0) {
      fe.product = Product::kSpectrum;
    } else if (std::strcmp(product, "slice") == 0) {
      fe.product = Product::kSlice;
    } else {
      continue;
    }
    fe.file = std::make_unique<gio::BlockFile>(entry.path().string());
    files_.push_back(std::move(fe));
  }
  HACC_CHECK_MSG(!files_.empty(), "no catalog files under " + dir_);
  std::sort(files_.begin(), files_.end(),
            [](const FileEntry& a, const FileEntry& b) {
              return a.step != b.step
                         ? a.step < b.step
                         : static_cast<int>(a.product) <
                               static_cast<int>(b.product);
            });
  for (const auto& fe : files_)
    if (steps_.empty() || steps_.back() != fe.step)
      steps_.push_back(fe.step);
}

const CatalogStore::FileEntry* CatalogStore::find(
    int step, Product product) const noexcept {
  for (const auto& fe : files_)
    if (fe.step == step && fe.product == product) return &fe;
  return nullptr;
}

CacheBlock CatalogStore::column(const FileEntry& fe, std::size_t block,
                                std::size_t var) const {
  CacheKey key;
  key.file = static_cast<std::uint32_t>(&fe - files_.data());
  key.block = static_cast<std::uint32_t>(block);
  key.var = static_cast<std::uint32_t>(var);
  return cache_->get_or_load(key, [&]() {
    std::vector<std::byte> bytes;
    if (!fe.file->read_verified(block, var, bytes))
      throw Error("catalog " + fe.file->path() + ": CRC mismatch in block " +
                  std::to_string(block) + " var '" +
                  fe.file->var_names()[var] + "' — query refused");
    return bytes;
  });
}

std::size_t CatalogStore::var_of(const FileEntry& fe, const char* name) const {
  const int v = fe.file->var_index(name);
  HACC_CHECK_MSG(v >= 0, "catalog " + fe.file->path() +
                             " has no variable '" + name + "'");
  return static_cast<std::size_t>(v);
}

std::uint64_t CatalogStore::halo_count(int step) const {
  const FileEntry* fe = find(step, Product::kHalos);
  return fe != nullptr ? fe->file->total_rows() : 0;
}

std::optional<CatalogStore::HaloRecord> CatalogStore::halo_by_id(
    int step, std::uint64_t id) const {
  const FileEntry* fe = find(step, Product::kHalos);
  if (fe == nullptr) return std::nullopt;
  const std::size_t v_id = var_of(*fe, "halo_id");
  for (std::size_t b = 0; b < fe->file->blocks(); ++b) {
    if (fe->file->rows(b) == 0) continue;
    const auto ids = as<std::uint64_t>(column(*fe, b, v_id));
    // Catalog rows are sorted by halo id at write time.
    const auto it = std::lower_bound(ids.view.begin(), ids.view.end(), id);
    if (it == ids.view.end() || *it != id) continue;
    const auto row = static_cast<std::size_t>(it - ids.view.begin());
    HaloRecord rec;
    rec.id = id;
    rec.count = as<std::uint64_t>(column(*fe, b, var_of(*fe, "count")))[row];
    rec.mass = as<float>(column(*fe, b, var_of(*fe, "mass")))[row];
    rec.center = {as<float>(column(*fe, b, var_of(*fe, "cx")))[row],
                  as<float>(column(*fe, b, var_of(*fe, "cy")))[row],
                  as<float>(column(*fe, b, var_of(*fe, "cz")))[row]};
    rec.velocity = {as<float>(column(*fe, b, var_of(*fe, "vcx")))[row],
                    as<float>(column(*fe, b, var_of(*fe, "vcy")))[row],
                    as<float>(column(*fe, b, var_of(*fe, "vcz")))[row]};
    return rec;
  }
  return std::nullopt;
}

std::vector<CatalogStore::HaloRecord> CatalogStore::halos_in_mass_range(
    int step, float min_mass, float max_mass) const {
  std::vector<HaloRecord> out;
  const FileEntry* fe = find(step, Product::kHalos);
  if (fe == nullptr) return out;
  for (std::size_t b = 0; b < fe->file->blocks(); ++b) {
    if (fe->file->rows(b) == 0) continue;
    const auto mass = as<float>(column(*fe, b, var_of(*fe, "mass")));
    std::vector<std::size_t> rows;
    for (std::size_t r = 0; r < mass.size(); ++r)
      if (mass[r] >= min_mass && mass[r] <= max_mass) rows.push_back(r);
    if (rows.empty()) continue;
    const auto ids = as<std::uint64_t>(column(*fe, b, var_of(*fe, "halo_id")));
    const auto count = as<std::uint64_t>(column(*fe, b, var_of(*fe, "count")));
    const auto cx = as<float>(column(*fe, b, var_of(*fe, "cx")));
    const auto cy = as<float>(column(*fe, b, var_of(*fe, "cy")));
    const auto cz = as<float>(column(*fe, b, var_of(*fe, "cz")));
    const auto vcx = as<float>(column(*fe, b, var_of(*fe, "vcx")));
    const auto vcy = as<float>(column(*fe, b, var_of(*fe, "vcy")));
    const auto vcz = as<float>(column(*fe, b, var_of(*fe, "vcz")));
    for (const std::size_t r : rows) {
      HaloRecord rec;
      rec.id = ids[r];
      rec.count = count[r];
      rec.mass = mass[r];
      rec.center = {cx[r], cy[r], cz[r]};
      rec.velocity = {vcx[r], vcy[r], vcz[r]};
      out.push_back(rec);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HaloRecord& a, const HaloRecord& b) {
              return a.id < b.id;
            });
  return out;
}

std::vector<CatalogStore::SpectrumPoint> CatalogStore::spectrum(
    int step, float kmin, float kmax) const {
  std::vector<SpectrumPoint> out;
  const FileEntry* fe = find(step, Product::kSpectrum);
  if (fe == nullptr) return out;
  for (std::size_t b = 0; b < fe->file->blocks(); ++b) {
    if (fe->file->rows(b) == 0) continue;
    const auto k = as<float>(column(*fe, b, var_of(*fe, "k")));
    const auto power = as<float>(column(*fe, b, var_of(*fe, "power")));
    const auto modes =
        as<std::uint64_t>(column(*fe, b, var_of(*fe, "modes")));
    for (std::size_t r = 0; r < k.size(); ++r)
      if (k[r] >= kmin && k[r] <= kmax)
        out.push_back(SpectrumPoint{k[r], power[r], modes[r]});
  }
  std::sort(out.begin(), out.end(),
            [](const SpectrumPoint& a, const SpectrumPoint& b) {
              return a.k < b.k;
            });
  return out;
}

std::vector<CatalogStore::SliceParticle> CatalogStore::region(
    int step, const std::array<float, 3>& lo,
    const std::array<float, 3>& hi) const {
  std::vector<SliceParticle> out;
  const FileEntry* fe = find(step, Product::kSlice);
  if (fe == nullptr) return out;
  for (std::size_t b = 0; b < fe->file->blocks(); ++b) {
    if (fe->file->rows(b) == 0) continue;
    const auto x = as<float>(column(*fe, b, var_of(*fe, "x")));
    const auto y = as<float>(column(*fe, b, var_of(*fe, "y")));
    const auto z = as<float>(column(*fe, b, var_of(*fe, "z")));
    std::vector<std::size_t> rows;
    for (std::size_t r = 0; r < x.size(); ++r)
      if (x[r] >= lo[0] && x[r] < hi[0] && y[r] >= lo[1] && y[r] < hi[1] &&
          z[r] >= lo[2] && z[r] < hi[2])
        rows.push_back(r);
    if (rows.empty()) continue;
    const auto vx = as<float>(column(*fe, b, var_of(*fe, "vx")));
    const auto vy = as<float>(column(*fe, b, var_of(*fe, "vy")));
    const auto vz = as<float>(column(*fe, b, var_of(*fe, "vz")));
    const auto id = as<std::uint64_t>(column(*fe, b, var_of(*fe, "id")));
    for (const std::size_t r : rows)
      out.push_back(SliceParticle{x[r], y[r], z[r], vx[r], vy[r], vz[r],
                                  id[r]});
  }
  return out;
}

bool CatalogStore::verify_all(std::vector<std::string>* damaged) const {
  bool ok = true;
  for (const auto& fe : files_) {
    const gio::VerifyReport vr = gio::verify_file(fe.file->path());
    if (!vr.ok) {
      ok = false;
      if (damaged != nullptr) damaged->push_back(fe.file->path());
    }
  }
  return ok;
}

}  // namespace hacc::serve

#include "src/index/serialize.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>

namespace odyssey {
namespace {

constexpr char kMagic[4] = {'O', 'D', 'I', 'X'};
constexpr uint32_t kVersion = 1;
constexpr uint8_t kLeafTag = 0;
constexpr uint8_t kInternalTag = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteBytes(std::FILE* f, const void* data, size_t bytes) {
  return std::fwrite(data, 1, bytes, f) == bytes;
}

template <typename T>
bool WriteValue(std::FILE* f, T value) {
  return WriteBytes(f, &value, sizeof(T));
}

/// A file opened for loading, with the count of bytes not yet read. Every
/// count read from the file is checked against remaining() before anything
/// is allocated for it, so a corrupt header fails as a Status instead of a
/// multi-gigabyte allocation.
class Reader {
 public:
  Reader(std::FILE* f, uint64_t size) : f_(f), remaining_(size) {}

  uint64_t remaining() const { return remaining_; }

  bool ReadBytes(void* data, size_t bytes) {
    if (bytes > remaining_) return false;
    if (std::fread(data, 1, bytes, f_) != bytes) return false;
    remaining_ -= bytes;
    return true;
  }

  template <typename T>
  bool ReadValue(T* value) {
    return ReadBytes(value, sizeof(T));
  }

 private:
  std::FILE* f_;
  uint64_t remaining_;
};

/// Size of the open file `f` in bytes, leaving its position at the start;
/// nullopt when the stream cannot seek.
std::optional<uint64_t> FileSize(std::FILE* f) {
  if (std::fseek(f, 0, SEEK_END) != 0) return std::nullopt;
  const long size = std::ftell(f);
  if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) return std::nullopt;
  return static_cast<uint64_t>(size);
}

bool WriteNode(std::FILE* f, const TreeNode* node) {
  if (node->is_leaf()) {
    if (!WriteValue<uint8_t>(f, kLeafTag)) return false;
    const uint32_t n = static_cast<uint32_t>(node->ids().size());
    if (!WriteValue(f, n)) return false;
    return n == 0 ||
           WriteBytes(f, node->ids().data(), n * sizeof(uint32_t));
  }
  if (!WriteValue<uint8_t>(f, kInternalTag)) return false;
  if (!WriteValue<uint8_t>(
          f, static_cast<uint8_t>(node->split_segment()))) {
    return false;
  }
  return WriteNode(f, node->left()) && WriteNode(f, node->right());
}

/// Reads one pre-order subtree under the word `word`. `seen` marks the
/// series ids already placed in a leaf: every id must appear exactly once.
std::unique_ptr<TreeNode> ReadNode(Reader* in, IsaxWord word,
                                   const std::vector<uint8_t>& sax_table,
                                   const IsaxConfig& config,
                                   std::vector<bool>* seen, bool* ok) {
  uint8_t tag = 0;
  if (!in->ReadValue(&tag)) {
    *ok = false;
    return nullptr;
  }
  auto node = std::make_unique<TreeNode>(word);
  if (tag == kLeafTag) {
    uint32_t n = 0;
    if (!in->ReadValue(&n) || n > in->remaining() / sizeof(uint32_t)) {
      *ok = false;
      return nullptr;
    }
    std::vector<uint32_t> ids(n);
    if (n > 0 && !in->ReadBytes(ids.data(), n * sizeof(uint32_t))) {
      *ok = false;
      return nullptr;
    }
    const size_t w = static_cast<size_t>(config.segments());
    std::vector<uint8_t> leaf_sax;
    leaf_sax.reserve(n * w);
    for (uint32_t id : ids) {
      // A series must lie under its leaf's word, or the node bound that
      // pruned the leaf would not bound the series.
      if (id >= seen->size() || (*seen)[id] ||
          !word.Matches(sax_table.data() + id * w, config)) {
        *ok = false;
        return nullptr;
      }
      (*seen)[id] = true;
      leaf_sax.insert(leaf_sax.end(), sax_table.data() + id * w,
                      sax_table.data() + (id + 1) * w);
    }
    node->SetLeafPayload(std::move(ids), std::move(leaf_sax));
    return node;
  }
  if (tag != kInternalTag) {
    *ok = false;
    return nullptr;
  }
  uint8_t split = 0;
  if (!in->ReadValue(&split) || split >= word.symbols.size() ||
      word.bits[split] >= config.max_bits) {
    *ok = false;
    return nullptr;
  }
  IsaxWord left_word = word;
  left_word.bits[split] = static_cast<uint8_t>(word.bits[split] + 1);
  left_word.symbols[split] = static_cast<uint8_t>(word.symbols[split] << 1);
  IsaxWord right_word = left_word;
  right_word.symbols[split] =
      static_cast<uint8_t>(right_word.symbols[split] | 1u);
  auto left = ReadNode(in, std::move(left_word), sax_table, config, seen, ok);
  if (!*ok) return nullptr;
  auto right = ReadNode(in, std::move(right_word), sax_table, config, seen, ok);
  if (!*ok) return nullptr;
  node->AdoptChildren(split, std::move(left), std::move(right));
  return node;
}

}  // namespace

Status SaveIndexToFile(const Index& index, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  const IsaxConfig& config = index.config();
  const uint32_t length = static_cast<uint32_t>(config.series_length());
  const uint32_t segments = static_cast<uint32_t>(config.segments());
  const uint32_t max_bits = static_cast<uint32_t>(config.max_bits);
  const uint32_t leaf_capacity =
      static_cast<uint32_t>(index.options().leaf_capacity);
  const uint32_t count = static_cast<uint32_t>(index.data().size());
  if (!WriteBytes(f.get(), kMagic, 4) || !WriteValue(f.get(), kVersion) ||
      !WriteValue(f.get(), length) || !WriteValue(f.get(), segments) ||
      !WriteValue(f.get(), max_bits) || !WriteValue(f.get(), leaf_capacity) ||
      !WriteValue(f.get(), count)) {
    return Status::IoError("short header write: " + path);
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (!WriteBytes(f.get(), index.data().data(i), length * sizeof(float))) {
      return Status::IoError("short data write: " + path);
    }
  }
  if (!WriteBytes(f.get(), index.sax_table().data(),
                  index.sax_table().size())) {
    return Status::IoError("short SAX-table write: " + path);
  }
  const IndexTree& tree = index.tree();
  if (!WriteValue(f.get(), static_cast<uint32_t>(tree.root_count()))) {
    return Status::IoError("short tree write: " + path);
  }
  for (size_t r = 0; r < tree.root_count(); ++r) {
    if (!WriteValue(f.get(), tree.root_key(r)) ||
        !WriteNode(f.get(), tree.root(r))) {
      return Status::IoError("short tree write: " + path);
    }
  }
  return Status::Ok();
}

StatusOr<Index> LoadIndexFromFile(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::IoError("cannot open for reading: " + path);
  }
  const std::optional<uint64_t> file_size = FileSize(f.get());
  if (!file_size.has_value()) {
    return Status::IoError("cannot size: " + path);
  }
  Reader in(f.get(), *file_size);
  char magic[4];
  uint32_t version = 0, length = 0, segments = 0, max_bits = 0,
           leaf_capacity = 0, count = 0;
  if (!in.ReadBytes(magic, 4) || !in.ReadValue(&version) ||
      !in.ReadValue(&length) || !in.ReadValue(&segments) ||
      !in.ReadValue(&max_bits) || !in.ReadValue(&leaf_capacity) ||
      !in.ReadValue(&count)) {
    return Status::IoError("short header read: " + path);
  }
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported index version in " + path);
  }
  // Root keys hold one bit per segment in a uint32_t (RootKey).
  if (length == 0 || segments == 0 || segments > length || segments > 32 ||
      max_bits == 0 || max_bits > static_cast<uint32_t>(kMaxSaxBits) ||
      leaf_capacity == 0) {
    return Status::InvalidArgument("corrupt index header in " + path);
  }
  // Each series occupies its raw points plus one SAX row.
  const uint64_t series_bytes =
      static_cast<uint64_t>(length) * sizeof(float) + segments;
  if (count > in.remaining() / series_bytes) {
    return Status::InvalidArgument("series count exceeds file size in " +
                                   path);
  }

  IndexOptions options;
  options.config = IsaxConfig(length, static_cast<int>(segments),
                              static_cast<int>(max_bits));
  options.leaf_capacity = leaf_capacity;

  SeriesCollection data(length);
  float* dst = data.AppendUninitialized(count);
  if (!in.ReadBytes(dst, static_cast<size_t>(count) * length * sizeof(float))) {
    return Status::IoError("short data read: " + path);
  }
  std::vector<uint8_t> sax_table(static_cast<size_t>(count) * segments);
  if (!in.ReadBytes(sax_table.data(), sax_table.size())) {
    return Status::IoError("short SAX-table read: " + path);
  }
  // The query path indexes its bound tables by these symbols unchecked.
  const uint32_t symbol_limit = 1u << max_bits;
  for (uint8_t symbol : sax_table) {
    if (symbol >= symbol_limit) {
      return Status::InvalidArgument("SAX symbol out of range in " + path);
    }
  }
  // The tree is loaded below, not rebuilt, so the adopted bundle skips the
  // summarization buffers (and carries no PAA table — the file stores none).
  Index index(SharedChunk::Adopt(std::move(data), {}, {}, std::move(sax_table),
                                 options.config, /*pool=*/nullptr,
                                 /*build_buffers=*/false),
              options);

  uint32_t root_count = 0;
  if (!in.ReadValue(&root_count)) {
    return Status::IoError("short tree read: " + path);
  }
  // A root is at least its key, a leaf tag and an id count.
  constexpr uint64_t kMinRootBytes = sizeof(uint32_t) + 1 + sizeof(uint32_t);
  if (root_count > in.remaining() / kMinRootBytes) {
    return Status::InvalidArgument("root count exceeds file size in " + path);
  }
  std::vector<bool> seen(count, false);
  std::vector<uint32_t> keys;
  std::vector<std::unique_ptr<TreeNode>> roots;
  keys.reserve(root_count);
  roots.reserve(root_count);
  for (uint32_t r = 0; r < root_count; ++r) {
    uint32_t key = 0;
    if (!in.ReadValue(&key)) {
      return Status::IoError("short tree read: " + path);
    }
    if ((static_cast<uint64_t>(key) >> segments) != 0 ||
        (!keys.empty() && key <= keys.back())) {
      return Status::InvalidArgument("root key out of range or order in " + path);
    }
    bool ok = true;
    auto root = ReadNode(&in, IsaxWord::Root(options.config, key),
                         index.sax_table(), options.config, &seen, &ok);
    if (!ok) {
      return Status::InvalidArgument("corrupt subtree in " + path);
    }
    keys.push_back(key);
    roots.push_back(std::move(root));
  }
  if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
    return Status::InvalidArgument("tree does not cover every series in " +
                                   path);
  }
  index.tree_ = IndexTree::FromRoots(std::move(keys), std::move(roots));
  return index;
}

}  // namespace odyssey

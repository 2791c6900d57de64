#include "mm/ckpt/journal.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "mm/util/hash.h"
#include "mm/util/logging.h"

namespace mm::ckpt {

namespace {

constexpr std::uint32_t kMagic = 0x324A4D4D;  // 'MMJ2'
// magic + key_len + vector_id + page_idx + version + offset + payload_len +
// page_crc + payload_crc + batch_left.
constexpr std::uint64_t kFixedHeaderBytes =
    4 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 4;
constexpr std::uint32_t kMaxKeyLen = 4096;

template <typename T>
void PutPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool GetPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

// Serialized header (fixed fields + key) followed by its own CRC. The
// payload is written separately so AppendTorn can cut it short.
std::string SerializeHeader(const storage::BlobId& id, std::uint64_t version,
                            std::uint64_t offset, std::uint64_t payload_len,
                            std::uint32_t page_crc, std::uint32_t payload_crc,
                            std::uint32_t batch_left, const std::string& key) {
  std::string buf;
  buf.reserve(kFixedHeaderBytes + key.size() + 4);
  PutPod(&buf, kMagic);
  PutPod(&buf, static_cast<std::uint32_t>(key.size()));
  PutPod(&buf, id.vector_id);
  PutPod(&buf, id.page_idx);
  PutPod(&buf, version);
  PutPod(&buf, offset);
  PutPod(&buf, payload_len);
  PutPod(&buf, page_crc);
  PutPod(&buf, payload_crc);
  PutPod(&buf, batch_left);
  buf.append(key);
  std::uint32_t header_crc =
      Crc32(reinterpret_cast<const std::uint8_t*>(buf.data()), buf.size());
  PutPod(&buf, header_crc);
  return buf;
}

}  // namespace

Journal::Journal(std::string path) : path_(std::move(path)) {
  MutexLock lock(mu_);
  // Index whatever intact records a previous process left behind; a torn
  // tail stays on disk until the first append or Truncate so Replay can
  // still observe and report it.
  Status st = ReindexLocked();
  if (!st.ok() && st.code() != StatusCode::kNotFound) {
    MM_WARN("ckpt") << "journal " << path_ << " unreadable: " << st.message();
  }
}

Status Journal::ScanLocked(std::vector<ScannedRecord>* out, bool want_payload,
                           std::uint64_t* torn) const {
  out->clear();
  if (torn != nullptr) *torn = 0;
  std::error_code ec;
  if (!std::filesystem::exists(path_, ec) || ec) {
    return NotFound("no journal at " + path_);
  }
  std::uint64_t file_size = std::filesystem::file_size(path_, ec);
  if (ec) return IoError("cannot stat journal: " + path_);
  std::ifstream in(path_, std::ios::binary);
  if (!in) return IoError("cannot open journal: " + path_);
  // Records of the batch being read; they reach *out only once the record
  // with batch_left == 0 closes the batch.
  std::vector<ScannedRecord> batch;
  bool corrupt = false;
  std::uint64_t pos = 0;
  while (pos + kFixedHeaderBytes + 4 <= file_size) {
    in.clear();
    in.seekg(static_cast<std::streamoff>(pos));
    std::uint32_t magic = 0, key_len = 0, batch_left = 0;
    ScannedRecord rec;
    std::uint64_t payload_len = 0;
    if (!GetPod(in, &magic) || !GetPod(in, &key_len) ||
        !GetPod(in, &rec.id.vector_id) || !GetPod(in, &rec.id.page_idx) ||
        !GetPod(in, &rec.entry.version) || !GetPod(in, &rec.entry.offset) ||
        !GetPod(in, &payload_len) || !GetPod(in, &rec.entry.page_crc) ||
        !GetPod(in, &rec.entry.payload_crc) || !GetPod(in, &batch_left) ||
        magic != kMagic || key_len > kMaxKeyLen) {
      corrupt = true;
      break;
    }
    std::string key(key_len, '\0');
    std::uint32_t header_crc = 0;
    in.read(key.data(), key_len);
    if (!in || !GetPod(in, &header_crc)) {
      corrupt = true;
      break;
    }
    std::uint64_t payload_pos = pos + kFixedHeaderBytes + key_len + 4;
    std::string expect =
        SerializeHeader(rec.id, rec.entry.version, rec.entry.offset,
                        payload_len, rec.entry.page_crc,
                        rec.entry.payload_crc, batch_left, key);
    std::uint32_t expect_crc = 0;
    std::memcpy(&expect_crc, expect.data() + expect.size() - 4, 4);
    // Inside a batch, each record counts down by exactly one.
    const bool out_of_sequence =
        !batch.empty() && batch_left + 1 != batch.back().batch_left;
    if (header_crc != expect_crc || payload_pos + payload_len > file_size ||
        out_of_sequence) {
      corrupt = true;
      break;
    }
    if (want_payload) {
      rec.payload.resize(payload_len);
      in.read(reinterpret_cast<char*>(rec.payload.data()),
              static_cast<std::streamsize>(payload_len));
      if (!in || Crc32(rec.payload.data(), rec.payload.size()) !=
                     rec.entry.payload_crc) {
        corrupt = true;
        break;
      }
    }
    rec.entry.key = std::move(key);
    rec.entry.payload_pos = payload_pos;
    rec.entry.payload_len = payload_len;
    rec.batch_left = batch_left;
    batch.push_back(std::move(rec));
    pos = payload_pos + payload_len;
    if (batch_left == 0) {
      for (auto& r : batch) out->push_back(std::move(r));
      batch.clear();
    }
  }
  // A torn record or an unclosed batch: the whole tail is discarded.
  if (torn != nullptr && (corrupt || !batch.empty())) *torn = 1;
  return Status::Ok();
}

Status Journal::ReindexLocked() {
  index_.clear();
  good_size_ = 0;
  record_count_ = 0;
  std::vector<ScannedRecord> records;
  MM_RETURN_IF_ERROR(ScanLocked(&records, /*want_payload=*/false, nullptr));
  for (auto& rec : records) {
    good_size_ = rec.entry.payload_pos + rec.entry.payload_len;
    index_[rec.id] = std::move(rec.entry);
    ++record_count_;
  }
  return Status::Ok();
}

Status Journal::TrimLocked() {
  std::error_code ec;
  if (!std::filesystem::exists(path_, ec) || ec) return Status::Ok();
  std::uint64_t file_size = std::filesystem::file_size(path_, ec);
  if (ec) return IoError("cannot stat journal: " + path_);
  if (file_size > good_size_) {
    std::filesystem::resize_file(path_, good_size_, ec);
    if (ec) return IoError("cannot trim torn journal tail: " + path_);
  }
  return Status::Ok();
}

Status Journal::AppendImpl(std::span<const JournalRecord> batch, bool torn) {
  if (batch.empty()) return Status::Ok();
  MutexLock lock(mu_);
  std::error_code ec;
  std::filesystem::path parent = std::filesystem::path(path_).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  // A torn tail from a previous (simulated) crash must not sit between
  // intact records: trim it before appending past it.
  MM_RETURN_IF_ERROR(TrimLocked());
  std::vector<std::string> headers;
  std::vector<std::uint32_t> payload_crcs;
  headers.reserve(batch.size());
  payload_crcs.reserve(batch.size());
  std::uint64_t batch_bytes = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const JournalRecord& rec = batch[i];
    payload_crcs.push_back(Crc32(rec.payload.data(), rec.payload.size()));
    headers.push_back(SerializeHeader(
        rec.id, rec.version, rec.offset, rec.payload.size(), rec.page_crc,
        payload_crcs.back(), static_cast<std::uint32_t>(batch.size() - 1 - i),
        rec.key));
    batch_bytes += headers.back().size() + rec.payload.size();
  }
  {
    // Append mode never repositions into committed records (and is exempt
    // from MML007's temp+rename requirement by design: a torn append is
    // detected by the record CRCs, not prevented by atomic publication).
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    if (!out) return IoError("cannot open journal for append: " + path_);
    // A torn append stops halfway through the batch's bytes.
    std::uint64_t budget = torn ? batch_bytes / 2 : batch_bytes;
    auto put = [&](const void* data, std::uint64_t len) {
      len = std::min(len, budget);
      out.write(static_cast<const char*>(data),
                static_cast<std::streamsize>(len));
      budget -= len;
    };
    for (std::size_t i = 0; i < batch.size(); ++i) {
      put(headers[i].data(), headers[i].size());
      put(batch[i].payload.data(), batch[i].payload.size());
    }
    out.flush();
    if (!out) return IoError("short journal append: " + path_);
  }
  if (torn) {
    // Unreadable garbage as far as recovery is concerned; good_size_ keeps
    // pointing at the last intact batch.
    return Status::Ok();
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const JournalRecord& rec = batch[i];
    IndexEntry e;
    e.version = rec.version;
    e.offset = rec.offset;
    e.page_crc = rec.page_crc;
    e.payload_crc = payload_crcs[i];
    e.payload_pos = good_size_ + headers[i].size();
    e.payload_len = rec.payload.size();
    e.key = rec.key;
    index_[rec.id] = std::move(e);
    good_size_ += headers[i].size() + rec.payload.size();
    ++record_count_;
  }
  return Status::Ok();
}

Status Journal::AppendBatch(std::span<const JournalRecord> batch) {
  return AppendImpl(batch, /*torn=*/false);
}

Status Journal::AppendTorn(std::span<const JournalRecord> batch) {
  return AppendImpl(batch, /*torn=*/true);
}

StatusOr<JournalRecord> Journal::Latest(const storage::BlobId& id) const {
  MutexLock lock(mu_);
  auto it = index_.find(id);
  if (it == index_.end()) {
    return NotFound("no journal record for " + id.ToString());
  }
  const IndexEntry& e = it->second;
  JournalRecord rec;
  rec.id = id;
  rec.version = e.version;
  rec.offset = e.offset;
  rec.page_crc = e.page_crc;
  rec.payload_crc = e.payload_crc;
  rec.key = e.key;
  rec.payload.resize(e.payload_len);
  std::ifstream in(path_, std::ios::binary);
  if (!in) return IoError("cannot open journal: " + path_);
  in.seekg(static_cast<std::streamoff>(e.payload_pos));
  in.read(reinterpret_cast<char*>(rec.payload.data()),
          static_cast<std::streamsize>(e.payload_len));
  if (!in || Crc32(rec.payload.data(), rec.payload.size()) != e.payload_crc) {
    return DataLoss("journal payload corrupt for " + id.ToString());
  }
  return rec;
}

Status Journal::Replay(const std::function<Status(const JournalRecord&)>& apply,
                       std::uint64_t* applied, std::uint64_t* torn) const {
  if (applied != nullptr) *applied = 0;
  std::vector<ScannedRecord> records;
  {
    MutexLock lock(mu_);
    Status st = ScanLocked(&records, /*want_payload=*/true, torn);
    if (st.code() == StatusCode::kNotFound) return Status::Ok();  // no file yet
    MM_RETURN_IF_ERROR(st);
  }
  for (auto& scanned : records) {
    JournalRecord rec;
    rec.id = scanned.id;
    rec.version = scanned.entry.version;
    rec.offset = scanned.entry.offset;
    rec.page_crc = scanned.entry.page_crc;
    rec.payload_crc = scanned.entry.payload_crc;
    rec.key = std::move(scanned.entry.key);
    rec.payload = std::move(scanned.payload);
    MM_RETURN_IF_ERROR(apply(rec));
    if (applied != nullptr) ++*applied;
  }
  return Status::Ok();
}

Status Journal::Truncate() {
  MutexLock lock(mu_);
  std::error_code ec;
  if (std::filesystem::exists(path_, ec) && !ec) {
    std::filesystem::resize_file(path_, 0, ec);
    if (ec) return IoError("cannot truncate journal: " + path_);
  }
  index_.clear();
  good_size_ = 0;
  record_count_ = 0;
  return Status::Ok();
}

std::uint64_t Journal::record_count() const {
  MutexLock lock(mu_);
  return record_count_;
}

std::uint64_t Journal::size_bytes() const {
  MutexLock lock(mu_);
  return good_size_;
}

}  // namespace mm::ckpt

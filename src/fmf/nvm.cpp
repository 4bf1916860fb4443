#include "fmf/nvm.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/crc8.hpp"

namespace easis::fmf {

namespace {

// Bank layout: [magic u32 | seq u32 | len u32 | crc u8 | payload...].
// The CRC covers seq, len and the payload, so a stale header glued onto a
// different payload fails the check just like flipped payload bits.
constexpr std::uint32_t kMagic = 0x455A4E56;  // "EZNV"
constexpr std::size_t kHeaderBytes = 13;

// Image encoding is one walk (encode_image) over two sinks: ByteCounter
// sizes the payload without touching memory, BankWriter writes it straight
// into a bank. Sharing the walk keeps payload_bytes() and the bytes
// written in lockstep by construction.

class ByteCounter {
 public:
  void u8(std::uint8_t) { bytes_ += 1; }
  void u16(std::uint16_t) { bytes_ += 2; }
  void u32(std::uint32_t) { bytes_ += 4; }
  void i64(std::int64_t) { bytes_ += 8; }
  void f64(double) { bytes_ += 8; }
  void str(const std::string& s) { bytes_ += 2 + s.size(); }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 private:
  std::size_t bytes_ = 0;
};

/// Little-endian writer into memory the caller has sized with ByteCounter.
class BankWriter {
 public:
  explicit BankWriter(std::uint8_t* out) : out_(out) {}

  void u8(std::uint8_t v) { *out_++ = v; }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v), 8); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    put(bits, 8);
  }
  void str(const std::string& s) {
    u16(static_cast<std::uint16_t>(s.size()));
    std::memcpy(out_, s.data(), s.size());
    out_ += s.size();
  }

 private:
  std::uint8_t* out_;

  void put(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      *out_++ = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    if (pos_ >= size_) {
      ok_ = false;
      return 0;
    }
    return data_[pos_++];
  }
  std::uint16_t u16() {
    const std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (u8() << 8));
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint16_t n = u16();
    if (pos_ + n > size_) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

template <typename Sink>
void encode_cause(const ResetCause& cause, Sink& w) {
  w.u8(static_cast<std::uint8_t>(cause.source));
  w.u32(cause.task.valid() ? cause.task.value() : ~0u);
  w.u32(cause.application.valid() ? cause.application.value() : ~0u);
  w.u8(static_cast<std::uint8_t>(cause.error));
  w.i64(cause.time.as_micros());
  w.str(cause.detail);
}

template <typename Sink>
void encode_dtc(const PersistedDtc& dtc, Sink& w) {
  w.u32(dtc.key.application.valid() ? dtc.key.application.value() : ~0u);
  w.u8(static_cast<std::uint8_t>(dtc.key.type));
  w.u32(dtc.occurrences);
  w.i64(dtc.first_seen.as_micros());
  w.i64(dtc.last_seen.as_micros());
  w.u8(dtc.active ? 1 : 0);
  w.u8(dtc.freeze_frame ? 1 : 0);
  if (dtc.freeze_frame) {
    w.i64(dtc.freeze_frame->captured_at.as_micros());
    w.u16(static_cast<std::uint16_t>(dtc.freeze_frame->signals.size()));
    for (const auto& [name, value] : dtc.freeze_frame->signals) {
      w.str(name);
      w.f64(value);
    }
  }
}

template <typename Sink>
void encode_image(const NvmImage& image, Sink& w) {
  w.u32(image.reset_count);
  w.u8(image.storm_latched ? 1 : 0);
  w.u16(static_cast<std::uint16_t>(image.reset_history.size()));
  for (const ResetCause& cause : image.reset_history) encode_cause(cause, w);
  w.u16(static_cast<std::uint16_t>(image.dtcs.size()));
  for (const PersistedDtc& dtc : image.dtcs) encode_dtc(dtc, w);
  w.u16(static_cast<std::uint16_t>(image.transgressions.size()));
  for (const wdg::TransgressionRecord& record : image.transgressions) {
    w.str(record.section);
    w.u32(record.count);
    w.i64(record.worst.as_micros());
    w.i64(record.last_at.as_micros());
  }
  w.str(image.power_mode);
}

TaskId read_task(std::uint32_t raw) {
  return raw == ~0u ? TaskId{} : TaskId(raw);
}
ApplicationId read_app(std::uint32_t raw) {
  return raw == ~0u ? ApplicationId{} : ApplicationId(raw);
}

std::optional<NvmImage> deserialize_image(const std::uint8_t* data,
                                          std::size_t size) {
  Reader r(data, size);
  NvmImage image;
  image.reset_count = r.u32();
  image.storm_latched = r.u8() != 0;
  const std::uint16_t history = r.u16();
  for (std::uint16_t i = 0; i < history && r.ok(); ++i) {
    ResetCause cause;
    cause.source = static_cast<ResetSource>(r.u8());
    cause.task = read_task(r.u32());
    cause.application = read_app(r.u32());
    cause.error = static_cast<wdg::ErrorType>(r.u8());
    cause.time = sim::SimTime(r.i64());
    cause.detail = r.str();
    image.reset_history.push_back(std::move(cause));
  }
  const std::uint16_t dtcs = r.u16();
  for (std::uint16_t i = 0; i < dtcs && r.ok(); ++i) {
    PersistedDtc dtc;
    dtc.key.application = read_app(r.u32());
    dtc.key.type = static_cast<wdg::ErrorType>(r.u8());
    dtc.occurrences = r.u32();
    dtc.first_seen = sim::SimTime(r.i64());
    dtc.last_seen = sim::SimTime(r.i64());
    dtc.active = r.u8() != 0;
    if (r.u8() != 0) {
      FreezeFrame frame;
      frame.captured_at = sim::SimTime(r.i64());
      const std::uint16_t signals = r.u16();
      for (std::uint16_t s = 0; s < signals && r.ok(); ++s) {
        std::string name = r.str();
        const double value = r.f64();
        frame.signals.emplace_back(std::move(name), value);
      }
      dtc.freeze_frame = std::move(frame);
    }
    image.dtcs.push_back(std::move(dtc));
  }
  const std::uint16_t transgressions = r.u16();
  for (std::uint16_t i = 0; i < transgressions && r.ok(); ++i) {
    wdg::TransgressionRecord record;
    record.section = r.str();
    record.count = r.u32();
    record.worst = sim::Duration::micros(r.i64());
    record.last_at = sim::SimTime(r.i64());
    image.transgressions.push_back(std::move(record));
  }
  image.power_mode = r.str();
  if (!r.ok()) return std::nullopt;
  return image;
}

std::uint32_t read_u32_at(const std::vector<std::uint8_t>& bank,
                          std::size_t offset) {
  return static_cast<std::uint32_t>(bank[offset]) |
         (static_cast<std::uint32_t>(bank[offset + 1]) << 8) |
         (static_cast<std::uint32_t>(bank[offset + 2]) << 16) |
         (static_cast<std::uint32_t>(bank[offset + 3]) << 24);
}

void write_u32_at(std::vector<std::uint8_t>& bank, std::size_t offset,
                  std::uint32_t v) {
  bank[offset] = static_cast<std::uint8_t>(v);
  bank[offset + 1] = static_cast<std::uint8_t>(v >> 8);
  bank[offset + 2] = static_cast<std::uint8_t>(v >> 16);
  bank[offset + 3] = static_cast<std::uint8_t>(v >> 24);
}

/// CRC over seq + len + payload (everything after the magic and CRC byte).
std::uint8_t bank_crc(const std::vector<std::uint8_t>& bank,
                      std::size_t payload_len) {
  const std::uint8_t crc_header = util::crc8_j1850(bank.data() + 4, 8);
  return util::crc8_j1850(bank.data() + kHeaderBytes, payload_len,
                         static_cast<std::uint8_t>(crc_header ^ 0xFF));
}

struct BankView {
  bool blank = true;
  bool valid = false;
  std::uint32_t seq = 0;
  std::size_t payload_len = 0;
};

BankView inspect(const std::vector<std::uint8_t>& bank,
                 std::size_t capacity) {
  BankView view;
  if (bank.size() < kHeaderBytes) return view;
  const std::uint32_t magic = read_u32_at(bank, 0);
  if (magic == 0) return view;  // never written
  view.blank = false;
  if (magic != kMagic) return view;
  view.seq = read_u32_at(bank, 4);
  const std::uint32_t len = read_u32_at(bank, 8);
  if (kHeaderBytes + len > capacity || kHeaderBytes + len > bank.size()) {
    return view;
  }
  view.payload_len = len;
  view.valid = bank_crc(bank, len) == bank[12];
  return view;
}

}  // namespace

NvmStore::NvmStore(std::size_t bank_capacity) : capacity_(bank_capacity) {
  banks_[0].assign(capacity_, 0);
  banks_[1].assign(capacity_, 0);
}

std::size_t payload_bytes(const NvmImage& image) {
  ByteCounter counter;
  encode_image(image, counter);
  return counter.bytes();
}

std::size_t payload_bytes(const PersistedDtc& dtc) {
  ByteCounter counter;
  encode_dtc(dtc, counter);
  return counter.bytes();
}

std::size_t payload_bytes(const ResetCause& cause) {
  ByteCounter counter;
  encode_cause(cause, counter);
  return counter.bytes();
}

bool NvmStore::commit(const NvmImage& image) {
  return commit(image, payload_bytes(image));
}

bool NvmStore::commit(const NvmImage& image, std::size_t payload) {
  // Size first: a rejected commit costs a size check, never a write.
  if (kHeaderBytes + payload > capacity_) {
    ++overflows_;
    return false;
  }
  const std::size_t target = 1 - active_;
  if (pending_faults_ > 0) {
    --pending_faults_;
    ++write_errors_;
    return false;
  }
  if (bank_worn(target)) {
    ++write_errors_;
    return false;
  }
  if (payload_bytes(image) != payload) {
    throw std::invalid_argument("NvmStore::commit: payload size is stale");
  }
  std::vector<std::uint8_t>& bank = banks_[target];
  write_u32_at(bank, 0, kMagic);
  write_u32_at(bank, 4, ++sequence_);
  write_u32_at(bank, 8, static_cast<std::uint32_t>(payload));
  BankWriter writer(bank.data() + kHeaderBytes);
  encode_image(image, writer);
  // The tail past the payload reads erased, as after a full bank erase.
  std::fill(bank.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes + payload),
            bank.end(), std::uint8_t{0});
  bank[12] = bank_crc(bank, payload);
  active_ = target;  // flip only after the full write
  ++commits_;
  ++erase_cycles_[target];
  last_image_bytes_ = payload;
  return true;
}

NvmStore::LoadResult NvmStore::load() const {
  LoadResult result;
  BankView views[2] = {inspect(banks_[0], capacity_),
                       inspect(banks_[1], capacity_)};
  for (std::size_t i = 0; i < 2; ++i) {
    if (!views[i].blank && !views[i].valid) {
      result.corruption_detected = true;
      if (!result.detail.empty()) result.detail += "; ";
      result.detail += "NVM bank " + std::to_string(i) +
                       " failed CRC/format check";
    }
  }
  int best = -1;
  for (int i = 0; i < 2; ++i) {
    if (views[i].valid && (best < 0 || views[i].seq > views[best].seq)) {
      best = i;
    }
  }
  if (best < 0) return result;  // blank or fully corrupted store
  const std::vector<std::uint8_t>& bank = banks_[best];
  result.image =
      deserialize_image(bank.data() + kHeaderBytes, views[best].payload_len);
  if (!result.image) {
    // CRC matched but the payload would not parse — treat as corruption.
    result.corruption_detected = true;
    if (!result.detail.empty()) result.detail += "; ";
    result.detail +=
        "NVM bank " + std::to_string(best) + " payload malformed";
  } else if (result.corruption_detected) {
    result.detail += " (recovered from the other bank)";
  }
  return result;
}

void NvmStore::erase() {
  banks_[0].assign(capacity_, 0);
  banks_[1].assign(capacity_, 0);
  active_ = 0;
  sequence_ = 0;
  last_image_bytes_ = 0;
  // A workshop "clear fault memory" erases both banks — it costs wear too.
  ++erase_cycles_[0];
  ++erase_cycles_[1];
}

bool NvmStore::bank_worn(std::size_t bank) const {
  return erase_budget_ > 0 && erase_cycles_[bank % 2] >= erase_budget_;
}

double NvmStore::wear_level() const {
  if (erase_budget_ == 0) return 0.0;
  const std::uint32_t worst = std::max(erase_cycles_[0], erase_cycles_[1]);
  const double level =
      static_cast<double>(worst) / static_cast<double>(erase_budget_);
  return level > 1.0 ? 1.0 : level;
}

double NvmStore::fill_level() const {
  if (last_image_bytes_ == 0 || capacity_ == 0) return 0.0;
  const double level =
      static_cast<double>(kHeaderBytes + last_image_bytes_) /
      static_cast<double>(capacity_);
  return level > 1.0 ? 1.0 : level;
}

void NvmStore::corrupt_bit(std::size_t bit_index) {
  std::vector<std::uint8_t>& bank = banks_[active_];
  const std::size_t byte = (bit_index / 8) % bank.size();
  bank[byte] ^= static_cast<std::uint8_t>(1u << (bit_index % 8));
}

void NvmStore::corrupt_byte(std::size_t bank, std::size_t offset,
                            std::uint8_t mask) {
  std::vector<std::uint8_t>& b = banks_[bank % 2];
  b[offset % b.size()] ^= mask;
}

}  // namespace easis::fmf

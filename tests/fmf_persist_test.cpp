// Equivalence tests for the size-first NVM commit.
//
// NvmStore::commit() sizes an image with payload_bytes() before it writes
// anything, and FaultManagementFramework::persist() builds its image from a
// const view of the DTC store. Both must behave byte for byte and counter
// for counter like the original design, which serialised the whole image
// into a fresh buffer on every commit attempt. This file keeps a reference
// copy of that design (encoder, two-bank commit, eviction ladder and retry
// loop) and checks the production code against it on seeded inputs.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fmf/dtc.hpp"
#include "fmf/fmf.hpp"
#include "fmf/nvm.hpp"
#include "os/kernel.hpp"
#include "rte/rte.hpp"
#include "rte/signal_bus.hpp"
#include "sim/engine.hpp"
#include "util/crc8.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "wdg/watchdog.hpp"

namespace easis::fmf {
namespace {

using sim::Duration;
using sim::SimTime;

// --- reference design --------------------------------------------------------

/// Byte-wise little-endian encoder into a growing buffer.
class RefWriter {
 public:
  void u8(std::uint8_t v) { bytes.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u16(static_cast<std::uint16_t>(s.size()));
    bytes.insert(bytes.end(), s.begin(), s.end());
  }

  std::vector<std::uint8_t> bytes;
};

std::vector<std::uint8_t> ref_serialize(const NvmImage& image) {
  RefWriter w;
  w.u32(image.reset_count);
  w.u8(image.storm_latched ? 1 : 0);
  w.u16(static_cast<std::uint16_t>(image.reset_history.size()));
  for (const ResetCause& cause : image.reset_history) {
    w.u8(static_cast<std::uint8_t>(cause.source));
    w.u32(cause.task.valid() ? cause.task.value() : ~0u);
    w.u32(cause.application.valid() ? cause.application.value() : ~0u);
    w.u8(static_cast<std::uint8_t>(cause.error));
    w.i64(cause.time.as_micros());
    w.str(cause.detail);
  }
  w.u16(static_cast<std::uint16_t>(image.dtcs.size()));
  for (const PersistedDtc& dtc : image.dtcs) {
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
  w.u16(static_cast<std::uint16_t>(image.transgressions.size()));
  for (const wdg::TransgressionRecord& record : image.transgressions) {
    w.str(record.section);
    w.u32(record.count);
    w.i64(record.worst.as_micros());
    w.i64(record.last_at.as_micros());
  }
  w.str(image.power_mode);
  return w.bytes;
}

constexpr std::size_t kHeader = 13;  // magic, seq, len (u32 each), crc

void ref_put_u32(std::vector<std::uint8_t>& bank, std::size_t at,
                 std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bank[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Two-bank store that serialises every commit attempt in full before it
/// checks the capacity.
struct RefNvm {
  explicit RefNvm(std::size_t capacity_in) : capacity(capacity_in) {
    banks[0].assign(capacity, 0);
    banks[1].assign(capacity, 0);
  }

  bool commit(const NvmImage& image) {
    const std::vector<std::uint8_t> payload = ref_serialize(image);
    if (kHeader + payload.size() > capacity) {
      ++overflows;
      return false;
    }
    const std::size_t target = 1 - active;
    if (pending_faults > 0) {
      --pending_faults;
      ++write_errors;
      return false;
    }
    if (erase_budget > 0 && erase_cycles[target] >= erase_budget) {
      ++write_errors;
      return false;
    }
    std::vector<std::uint8_t>& bank = banks[target];
    bank.assign(capacity, 0);
    ref_put_u32(bank, 0, 0x455A4E56);
    ref_put_u32(bank, 4, ++sequence);
    ref_put_u32(bank, 8, static_cast<std::uint32_t>(payload.size()));
    std::memcpy(bank.data() + kHeader, payload.data(), payload.size());
    const std::uint8_t crc_header = util::crc8_j1850(bank.data() + 4, 8);
    bank[12] = util::crc8_j1850(bank.data() + kHeader, payload.size(),
                                static_cast<std::uint8_t>(crc_header ^ 0xFF));
    active = target;
    ++commits;
    ++erase_cycles[target];
    return true;
  }

  std::size_t capacity;
  std::vector<std::uint8_t> banks[2];
  std::size_t active = 0;
  std::uint32_t sequence = 0;
  std::uint32_t commits = 0;
  std::uint32_t overflows = 0;
  std::uint32_t write_errors = 0;
  std::uint32_t erase_budget = 0;
  std::uint32_t erase_cycles[2] = {0, 0};
  std::uint32_t pending_faults = 0;
};

/// The eviction ladder: passive freeze frames, passive DTCs, active freeze
/// frames, active DTCs (oldest last_seen first), then the reset history
/// down to its newest entry.
bool ref_evict_one(NvmImage& image) {
  for (const bool active : {false, true}) {
    std::size_t best = image.dtcs.size();
    for (std::size_t i = 0; i < image.dtcs.size(); ++i) {
      if (image.dtcs[i].active != active || !image.dtcs[i].freeze_frame) {
        continue;
      }
      if (best == image.dtcs.size() ||
          image.dtcs[i].last_seen < image.dtcs[best].last_seen) {
        best = i;
      }
    }
    if (best < image.dtcs.size()) {
      image.dtcs[best].freeze_frame.reset();
      return true;
    }
    for (std::size_t i = 0; i < image.dtcs.size(); ++i) {
      if (image.dtcs[i].active != active) continue;
      if (best == image.dtcs.size() ||
          image.dtcs[i].last_seen < image.dtcs[best].last_seen) {
        best = i;
      }
    }
    if (best < image.dtcs.size()) {
      image.dtcs.erase(image.dtcs.begin() + static_cast<std::ptrdiff_t>(best));
      return true;
    }
  }
  if (image.reset_history.size() > 1) {
    image.reset_history.erase(image.reset_history.begin());
    return true;
  }
  return false;
}

/// The retry loop of persist(): commit, and on an overflow evict one entry
/// and try again; a write error ends the attempt.
struct RefPersist {
  explicit RefPersist(std::size_t capacity) : nvm(capacity) {}

  void persist(NvmImage image) {
    std::uint32_t overflows_seen = nvm.overflows;
    while (!nvm.commit(image)) {
      const bool capacity = nvm.overflows > overflows_seen;
      overflows_seen = nvm.overflows;
      if (!capacity) {
        ++write_failures;
        return;
      }
      if (!ref_evict_one(image)) return;
      ++evictions;
    }
  }

  RefNvm nvm;
  std::uint32_t evictions = 0;
  std::uint32_t write_failures = 0;
};

// --- seeded inputs -----------------------------------------------------------

std::string random_string(util::Rng& rng, std::int64_t max_len) {
  std::string s(static_cast<std::size_t>(rng.uniform_int(0, max_len)), ' ');
  for (char& c : s) c = static_cast<char>(rng.uniform_int('a', 'z'));
  return s;
}

NvmImage random_image(util::Rng& rng) {
  NvmImage image;
  image.reset_count = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
  image.storm_latched = rng.bernoulli(0.3);
  const auto causes = rng.uniform_int(0, 4);
  for (std::int64_t i = 0; i < causes; ++i) {
    ResetCause cause;
    cause.source = static_cast<ResetSource>(rng.uniform_int(0, 6));
    if (rng.bernoulli(0.7)) {
      cause.task = TaskId(static_cast<std::uint32_t>(rng.uniform_int(0, 9)));
    }
    cause.time = SimTime(rng.uniform_int(0, 1'000'000'000));
    cause.detail = random_string(rng, rng.bernoulli(0.2) ? 3000 : 40);
    image.reset_history.push_back(std::move(cause));
  }
  const auto dtcs = rng.uniform_int(0, 12);
  for (std::int64_t i = 0; i < dtcs; ++i) {
    PersistedDtc dtc;
    dtc.key.application =
        ApplicationId(static_cast<std::uint32_t>(rng.uniform_int(0, 50)));
    dtc.occurrences = static_cast<std::uint32_t>(rng.uniform_int(1, 99));
    dtc.first_seen = SimTime(rng.uniform_int(0, 1'000'000));
    dtc.last_seen = SimTime(rng.uniform_int(1'000'000, 2'000'000));
    dtc.active = rng.bernoulli(0.5);
    if (rng.bernoulli(0.6)) {
      FreezeFrame frame;
      frame.captured_at = dtc.first_seen;
      const auto signals = rng.uniform_int(0, 8);
      for (std::int64_t s = 0; s < signals; ++s) {
        frame.signals.emplace_back(random_string(rng, 60),
                                   rng.uniform(-1e6, 1e6));
      }
      dtc.freeze_frame = std::move(frame);
    }
    image.dtcs.push_back(std::move(dtc));
  }
  const auto transgressions = rng.uniform_int(0, 3);
  for (std::int64_t i = 0; i < transgressions; ++i) {
    wdg::TransgressionRecord record;
    record.section = random_string(rng, 30);
    record.count = static_cast<std::uint32_t>(rng.uniform_int(1, 9));
    record.worst = Duration::micros(rng.uniform_int(0, 50'000));
    record.last_at = SimTime(rng.uniform_int(0, 9'000'000));
    image.transgressions.push_back(std::move(record));
  }
  if (rng.bernoulli(0.5)) image.power_mode = random_string(rng, 12);
  return image;
}

// --- payload_bytes -----------------------------------------------------------

TEST(NvmPayloadBytes, EmptyImageIsTheFixedFields) {
  const NvmImage image;
  EXPECT_EQ(payload_bytes(image), ref_serialize(image).size());
  // reset_count, storm flag, three list counts and the power-mode length.
  EXPECT_EQ(payload_bytes(image), 4u + 1u + 2u + 2u + 2u + 2u);
}

TEST(NvmPayloadBytes, FreezeFramesAndLongStringsAreCounted) {
  NvmImage image;
  PersistedDtc bare;
  image.dtcs.push_back(bare);
  const std::size_t without_frame = payload_bytes(image);
  PersistedDtc framed;
  FreezeFrame frame;
  frame.signals.emplace_back(std::string(5000, 'x'), 1.5);
  framed.freeze_frame = frame;
  image.dtcs.push_back(framed);
  // DTC fields (27 bytes) + frame time and count (10) + one signal
  // (2 + 5000 + 8).
  EXPECT_EQ(payload_bytes(image) - without_frame, 27u + 10u + 5010u);
  EXPECT_EQ(payload_bytes(image), ref_serialize(image).size());
}

TEST(NvmPayloadBytes, MatchesTheSerialisedLengthOnSeededImages) {
  util::Rng rng(0x5EED);
  for (int i = 0; i < 300; ++i) {
    const NvmImage image = random_image(rng);
    const std::vector<std::uint8_t> reference = ref_serialize(image);
    ASSERT_EQ(payload_bytes(image), reference.size()) << "image " << i;

    // A commit writes exactly those bytes, and the image fits a bank of
    // exactly its size but not one byte less.
    NvmStore store(kHeader + reference.size());
    ASSERT_TRUE(store.commit(image)) << "image " << i;
    const std::vector<std::uint8_t>& bank = store.bank(store.active_bank());
    ASSERT_EQ(std::vector<std::uint8_t>(bank.begin() + kHeader, bank.end()),
              reference)
        << "image " << i;
    EXPECT_EQ(store.last_image_bytes(), reference.size());
    NvmStore tight(kHeader + reference.size() - 1);
    EXPECT_FALSE(tight.commit(image));
    EXPECT_EQ(tight.overflows(), 1u);
  }
}

TEST(NvmPayloadBytes, PartsAddUpToTheImage) {
  util::Rng rng(0xADD5);
  for (int i = 0; i < 200; ++i) {
    const NvmImage image = random_image(rng);
    NvmImage empty_lists = image;
    empty_lists.reset_history.clear();
    empty_lists.dtcs.clear();
    std::size_t sum = payload_bytes(empty_lists);
    for (const ResetCause& cause : image.reset_history) {
      sum += payload_bytes(cause);
    }
    for (const PersistedDtc& dtc : image.dtcs) sum += payload_bytes(dtc);
    ASSERT_EQ(sum, payload_bytes(image)) << "image " << i;
  }
}

TEST(NvmPayloadBytes, StaleSizeIsRefusedBeforeAnyWrite) {
  NvmStore store(4096);
  NvmImage image;
  image.power_mode = "run";
  const std::size_t exact = payload_bytes(image);
  EXPECT_THROW((void)store.commit(image, exact - 1), std::invalid_argument);
  EXPECT_EQ(store.commits(), 0u);
  EXPECT_FALSE(store.load().image.has_value());
  // A claimed size beyond the bank is an overflow, as for a real image.
  EXPECT_FALSE(store.commit(image, 5000));
  EXPECT_EQ(store.overflows(), 1u);
  EXPECT_TRUE(store.commit(image, exact));
}

TEST(NvmPayloadBytes, CommitMatchesTheReferenceBanksAndCounters) {
  util::Rng rng(0xBA4C);
  NvmStore store(2048);
  RefNvm ref(2048);
  for (int i = 0; i < 400; ++i) {
    if (rng.bernoulli(0.05)) {
      const auto burst = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
      store.inject_write_faults(burst);
      ref.pending_faults += burst;
    }
    if (i == 250) {
      store.set_erase_budget(store.erase_cycles(0) + 20);
      ref.erase_budget = ref.erase_cycles[0] + 20;
    }
    const NvmImage image = random_image(rng);
    ASSERT_EQ(store.commit(image), ref.commit(image)) << "commit " << i;
    ASSERT_EQ(store.bank(0), ref.banks[0]) << "commit " << i;
    ASSERT_EQ(store.bank(1), ref.banks[1]) << "commit " << i;
    ASSERT_EQ(store.active_bank(), ref.active);
    ASSERT_EQ(store.commits(), ref.commits);
    ASSERT_EQ(store.overflows(), ref.overflows);
    ASSERT_EQ(store.write_errors(), ref.write_errors);
    ASSERT_EQ(store.erase_cycles(0), ref.erase_cycles[0]);
    ASSERT_EQ(store.erase_cycles(1), ref.erase_cycles[1]);
  }
  // The seed exercised every branch.
  EXPECT_GT(store.commits(), 0u);
  EXPECT_GT(store.overflows(), 0u);
  EXPECT_GT(store.write_errors(), 0u);
}

// --- the eviction ladder ------------------------------------------------------

/// random_image() with last_seen drawn from four values, so that most
/// classes hold ties and the lower-index rule decides.
NvmImage tied_image(util::Rng& rng) {
  NvmImage image = random_image(rng);
  for (PersistedDtc& dtc : image.dtcs) {
    dtc.last_seen = SimTime(1'000'000 + 1'000 * rng.uniform_int(0, 3));
  }
  return image;
}

/// Evictions the reference ladder performs before it runs dry.
std::size_t ref_ladder_length(NvmImage image) {
  std::size_t steps = 0;
  while (ref_evict_one(image)) ++steps;
  return steps;
}

TEST(EvictionLadder, EveryPrefixLeavesTheReferenceImage) {
  util::Rng rng(0x1ADDE7);
  for (int i = 0; i < 200; ++i) {
    const NvmImage image = tied_image(rng);
    const std::size_t length = ref_ladder_length(image);
    for (std::size_t k = 0; k <= length + 1; ++k) {
      NvmImage expected = image;
      for (std::size_t step = 0; step < k; ++step) {
        (void)ref_evict_one(expected);
      }
      NvmImage evicted = image;
      EvictionLadder ladder(evicted);
      std::size_t freed = 0;
      for (std::size_t step = 0; step < k; ++step) {
        const std::size_t bytes = ladder.evict_next(evicted);
        // A step past the end frees nothing, as for the reference.
        ASSERT_EQ(bytes == 0, step >= length)
            << "image " << i << " step " << step;
        freed += bytes;
      }
      ladder.compact(evicted);
      ASSERT_EQ(ref_serialize(evicted), ref_serialize(expected))
          << "image " << i << " after " << k << " evictions";
      ASSERT_EQ(payload_bytes(image) - freed, payload_bytes(evicted))
          << "image " << i << " after " << k << " evictions";
    }
  }
}

/// persist()'s retry loop over an arbitrary image: production store and
/// ladder, compacting once the image fits.
struct LadderPersist {
  explicit LadderPersist(std::size_t capacity) : nvm(capacity) {}

  void persist(NvmImage image) {
    std::size_t bytes = payload_bytes(image);
    std::uint32_t overflows_seen = nvm.overflows();
    std::optional<EvictionLadder> ladder;
    while (!nvm.commit(image, bytes)) {
      const bool capacity = nvm.overflows() > overflows_seen;
      overflows_seen = nvm.overflows();
      if (!capacity) return;
      if (!ladder) ladder.emplace(image);
      const std::size_t freed = ladder->evict_next(image);
      if (freed == 0) return;
      bytes -= freed;
      ++evictions;
      if (nvm.fits(bytes)) {
        ladder->compact(image);
        ladder.reset();
      }
    }
  }

  NvmStore nvm;
  std::uint32_t evictions = 0;
};

TEST(EvictionLadder, RandomImagesSurviveAsWithTheReferenceLoop) {
  util::Rng rng(0xF1A5F);
  std::uint32_t total_evictions = 0;
  std::uint32_t gave_up = 0;
  for (int i = 0; i < 400; ++i) {
    const NvmImage image = tied_image(rng);
    // Anything from "fits as is" down to "fits only the fixed fields".
    const std::size_t full = kHeader + payload_bytes(image);
    const auto capacity = static_cast<std::size_t>(
        rng.uniform_int(kHeader + 11, static_cast<std::int64_t>(full) + 8));
    RefPersist ref(capacity);
    LadderPersist ladder(capacity);
    ref.persist(image);
    ladder.persist(image);
    ASSERT_EQ(ladder.evictions, ref.evictions) << "image " << i;
    ASSERT_EQ(ladder.nvm.overflows(), ref.nvm.overflows) << "image " << i;
    ASSERT_EQ(ladder.nvm.commits(), ref.nvm.commits) << "image " << i;
    ASSERT_EQ(ladder.nvm.bank(0), ref.nvm.banks[0]) << "image " << i;
    ASSERT_EQ(ladder.nvm.bank(1), ref.nvm.banks[1]) << "image " << i;
    total_evictions += ref.evictions;
    if (ref.nvm.commits == 0) ++gave_up;
  }
  // The seed evicted, and also ran the ladder dry on some images.
  EXPECT_GT(total_evictions, 400u);
  EXPECT_GT(gave_up, 0u);
}

// --- persist() against the reference retry loop ------------------------------

wdg::WatchdogConfig watchdog_config() {
  wdg::WatchdogConfig config;
  config.check_period = Duration::millis(10);
  return config;
}

/// The flash_fill shape: a small bank, DTCs carrying the environment
/// freeze-frame signals, resets that grow the reset-cause chain.
class FmfPersistTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static constexpr std::size_t kCapacity = 1536;

  sim::Engine engine;
  os::Kernel kernel{engine};
  rte::Rte rte{kernel};
  wdg::SoftwareWatchdog wd{watchdog_config()};
  rte::SignalBus signals;
  DtcStore dtcs{signals,
                {"vehicle.speed_kmh", "driver.demand",
                 "safespeed.max_speed_kmh", "env.ecu.temp_c",
                 "env.ecu.stage", "env.faultmem.fill.level",
                 "env.faultmem.wear.level"},
                /*max_entries=*/64};
  FmfConfig config = [] {
    FmfConfig c;
    c.max_ecu_resets = 1000;
    c.storm_reset_limit = 1000;
    return c;
  }();
  FaultManagementFramework fmf{rte, wd, [] {}, config};
  NvmStore nvm{kCapacity};
  RefPersist ref{kCapacity};
  std::vector<wdg::TransgressionRecord> transgressions;
  std::string power_mode;

  void SetUp() override {
    fmf.attach();
    fmf.attach_dtc_store(&dtcs);
    fmf.attach_nvm(&nvm);
    fmf.attach_transgression_store(
        [this] { return transgressions; },
        [](const std::vector<wdg::TransgressionRecord>&) {});
    fmf.attach_power_mode_store([this] { return power_mode; },
                                [](const std::string&) {});
  }

  /// The image persist() saw, rebuilt from the FMF's public state.
  NvmImage expected_image() const {
    NvmImage image;
    image.reset_count = fmf.ecu_resets_performed();
    image.storm_latched = fmf.storm_latched();
    image.reset_history = fmf.reset_history();
    for (const DtcEntry& entry : dtcs.entries()) {
      image.dtcs.push_back(PersistedDtc{entry.key, entry.occurrences,
                                        entry.first_seen, entry.last_seen,
                                        entry.active, entry.freeze_frame});
    }
    image.transgressions = transgressions;
    image.power_mode = power_mode;
    return image;
  }

  void expect_same_as_reference(int step) {
    ASSERT_EQ(nvm.bank(0), ref.nvm.banks[0]) << "step " << step;
    ASSERT_EQ(nvm.bank(1), ref.nvm.banks[1]) << "step " << step;
    ASSERT_EQ(nvm.active_bank(), ref.nvm.active) << "step " << step;
    ASSERT_EQ(nvm.overflows(), ref.nvm.overflows) << "step " << step;
    ASSERT_EQ(nvm.write_errors(), ref.nvm.write_errors) << "step " << step;
    ASSERT_EQ(nvm.commits(), ref.nvm.commits) << "step " << step;
    ASSERT_EQ(nvm.erase_cycles(0), ref.nvm.erase_cycles[0]);
    ASSERT_EQ(nvm.erase_cycles(1), ref.nvm.erase_cycles[1]);
    ASSERT_EQ(fmf.nvm_evictions(), ref.evictions) << "step " << step;
    ASSERT_EQ(fmf.nvm_write_failures(), ref.write_failures)
        << "step " << step;
    const NvmStore::LoadResult loaded = nvm.load();
    ASSERT_FALSE(loaded.corruption_detected);
    if (ref.nvm.commits > 0) {
      ASSERT_TRUE(loaded.image.has_value());
      const std::vector<std::uint8_t>& bank = ref.nvm.banks[ref.nvm.active];
      const std::vector<std::uint8_t> payload(
          bank.begin() + kHeader,
          bank.begin() + static_cast<std::ptrdiff_t>(
                             kHeader + nvm.last_image_bytes()));
      ASSERT_EQ(ref_serialize(*loaded.image), payload) << "step " << step;
    }
  }
};

TEST_P(FmfPersistTest, FloodsFaultsAndWearMatchTheReferenceLoop) {
  util::Rng rng(GetParam());
  std::int64_t now = 0;
  std::uint32_t next_app = 0;
  for (int step = 0; step < 90; ++step) {
    now += rng.uniform_int(1'000, 50'000);
    signals.publish("env.ecu.temp_c", rng.uniform(20.0, 140.0),
                    SimTime(now));
    signals.publish("env.faultmem.fill.level", rng.uniform(0.0, 1.0),
                    SimTime(now));
    // A flood of new DTCs, plus repeats of older ones.
    const auto flood = rng.uniform_int(0, 6);
    for (std::int64_t i = 0; i < flood; ++i) {
      wdg::ErrorReport report;
      report.application = ApplicationId(
          rng.bernoulli(0.7) ? next_app++
                             : static_cast<std::uint32_t>(rng.uniform_int(
                                   0, std::max<std::uint32_t>(next_app, 1))));
      report.type = static_cast<wdg::ErrorType>(rng.uniform_int(0, 3));
      report.time = SimTime(now);
      dtcs.record(report);
    }
    if (rng.bernoulli(0.2) && next_app > 0) {
      dtcs.set_passive(DtcKey{
          ApplicationId(static_cast<std::uint32_t>(
              rng.uniform_int(0, next_app - 1))),
          static_cast<wdg::ErrorType>(rng.uniform_int(0, 3))});
    }
    if (rng.bernoulli(0.1)) {
      transgressions.push_back(wdg::TransgressionRecord{
          random_string(rng, 20), 1, Duration::micros(700), SimTime(now)});
    }
    if (rng.bernoulli(0.1)) power_mode = random_string(rng, 10);
    // Write-fault bursts and an erase budget that wears the banks out.
    if (rng.bernoulli(0.08)) {
      const auto burst = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
      nvm.inject_write_faults(burst);
      ref.nvm.pending_faults += burst;
    }
    if (step == 60) {
      const std::uint32_t budget = nvm.erase_cycles(0) + 15;
      nvm.set_erase_budget(budget);
      ref.nvm.erase_budget = budget;
    }
    if (rng.bernoulli(0.15)) {
      ResetCause cause;
      cause.source = ResetSource::kEcuFaulty;
      cause.time = SimTime(now);
      cause.detail = "seeded reset " + random_string(rng, 80);
      fmf.request_reset(std::move(cause), SimTime(now));  // persists
    } else {
      fmf.persist();
    }
    ref.persist(expected_image());
    expect_same_as_reference(step);
    if (HasFatalFailure()) return;
  }
  // The seed drove every path of the loop.
  EXPECT_GT(fmf.nvm_evictions(), 0u);
  EXPECT_GT(fmf.nvm_write_failures(), 0u);
  EXPECT_GT(nvm.commits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmfPersistTest,
                         ::testing::Values(1u, 2u, 3u, 2007u, 1107u));

// --- write-failure logging ---------------------------------------------------

TEST(FmfPersistLogging, WriteFailuresLogOnlyTheTransitions) {
  sim::Engine engine;
  os::Kernel kernel{engine};
  rte::Rte rte{kernel};
  wdg::SoftwareWatchdog wd{watchdog_config()};
  FaultManagementFramework fmf{rte, wd, [] {}, FmfConfig{}};
  NvmStore nvm(1024);
  fmf.attach();
  fmf.attach_nvm(&nvm);

  auto& logger = util::Logger::instance();
  std::vector<std::string> lines;
  auto old_sink = logger.set_sink(
      [&](util::LogLevel, std::string_view component, std::string_view msg) {
        if (component == "fmf") lines.emplace_back(msg);
      });
  const util::LogLevel old_level = logger.level();
  logger.set_level(util::LogLevel::kWarn);

  fmf.persist();  // healthy commit: silent
  nvm.inject_write_faults(50);
  for (int i = 0; i < 50; ++i) fmf.persist();
  const std::vector<std::string> while_failing = lines;
  fmf.persist();  // the faults are used up: commits recover
  fmf.persist();

  logger.set_level(old_level);
  logger.set_sink(old_sink);

  EXPECT_EQ(fmf.nvm_write_failures(), 50u);
  EXPECT_EQ(nvm.commits(), 3u);
  ASSERT_EQ(while_failing.size(), 1u);
  EXPECT_NE(while_failing[0].find("NVM commits failing"), std::string::npos);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("recovered after 50"), std::string::npos);
}

}  // namespace
}  // namespace easis::fmf
